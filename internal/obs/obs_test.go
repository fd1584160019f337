package obs

import (
	"bytes"
	"context"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAddFlagsAndSetup(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	traceFile := filepath.Join(t.TempDir(), "t.json")
	if err := fs.Parse([]string{"-trace", traceFile, "-stats", "-v"}); err != nil {
		t.Fatal(err)
	}
	if f.TracePath != traceFile || !f.Stats || !f.Verbose {
		t.Fatalf("flags not parsed: %+v", f)
	}
	rt, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracer == nil {
		t.Error("Setup with -trace did not build a tracer")
	}
	if rt.Metrics == nil || rt.Log == nil {
		t.Error("Setup missing metrics or logger")
	}

	var stats bytes.Buffer
	rt.statsOut = &stats
	rt.Metrics.Counter("exp_epochs_simulated_total").Add(42)
	_, s := rt.Tracer.Start(context.Background(), "run")
	s.End()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if _, err := ValidateChromeTrace(data); err != nil {
		t.Errorf("written trace invalid: %v", err)
	}
	if !strings.Contains(stats.String(), "exp_epochs_simulated_total") {
		t.Errorf("stats summary missing counter:\n%s", stats.String())
	}
	if !strings.Contains(stats.String(), "== ramp stats ==") {
		t.Errorf("stats summary missing header:\n%s", stats.String())
	}
}

func TestSetupWithoutTraceFlag(t *testing.T) {
	f := &Flags{}
	rt, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracer != nil {
		t.Error("Setup without -trace built a tracer")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("Close without trace/stats: %v", err)
	}
}

func TestSetupRejectsBadRAMPLOG(t *testing.T) {
	t.Setenv("RAMP_LOG", "chatty")
	f := &Flags{}
	if _, err := f.Setup(); err == nil {
		t.Error("Setup accepted RAMP_LOG=chatty")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"INFO":  slog.LevelInfo,
		" warn": slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted 'loud'")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo, false).Info("hello", "k", "v")
	if out := buf.String(); !strings.Contains(out, "msg=hello") || !strings.Contains(out, "k=v") {
		t.Errorf("text logger output: %q", out)
	}
	buf.Reset()
	NewLogger(&buf, slog.LevelInfo, true).Info("hello", "k", "v")
	if out := buf.String(); !strings.Contains(out, `"msg":"hello"`) {
		t.Errorf("json logger output: %q", out)
	}
	buf.Reset()
	NewLogger(&buf, slog.LevelWarn, false).Info("dropped")
	if buf.Len() != 0 {
		t.Errorf("info leaked through warn level: %q", buf.String())
	}
}

func TestDiscardLogger(t *testing.T) {
	l := Discard()
	l.Info("nothing")
	l.With("k", "v").WithGroup("g").Error("still nothing")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}
