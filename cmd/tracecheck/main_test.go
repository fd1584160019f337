package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSummaryFixture runs -summary on a hand-made sweep trace: a figure
// span whose two evaluations run concurrently on worker tracks, each
// split into a warm-up and an epoch. The evaluations overlap, so the
// figure's self time is what their union leaves uncovered (0.2 s), and
// the self times sum to more than the 1 s wall.
func TestSummaryFixture(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-summary", "testdata/sweep.json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	want := `tracecheck: testdata/sweep.json: ok (8 events)
  span                            count     self_s   share    total_s
  sim.epoch                           2     0.8000   80.0%     0.8000
  sim.warmup                          2     0.3000   30.0%     0.3000
  figures.figure2                     1     0.2000   20.0%     1.0000
  exp.evaluate                        2     0.1000   10.0%     1.2000
  wall                                      1.0000
`
	if got := out.String(); got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
}

// TestInvalidTraceSkipsSummary: a trace that fails validation exits 1
// and prints no summary.
func TestInvalidTraceSkipsSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := `{"traceEvents":[{"name":"sim.epoch","ph":"X","ts":-1,"dur":5,"pid":1,"tid":1}]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-summary", path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on an invalid trace, want 1", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed a summary for an invalid trace:\n%s", out.String())
	}
}
