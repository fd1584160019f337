// Command tracecheck validates a Chrome trace_event JSON file produced
// by the -trace flag of the RAMP binaries (or by hand): it checks the
// schema (known phases, non-empty names, non-negative timestamps and
// durations), file-order timestamp monotonicity, B/E bracket matching
// and X-event nesting per (pid, tid) track — the invariants Perfetto
// and chrome://tracing rely on to render a trace sensibly.
//
// With -summary it also prints, for each valid file, the self time per
// span name (duration minus what the span's direct children cover) and
// its share of the trace's wall time, largest first. That is the layer
// ledger of a run: on `drmexplore -trace` output it shows how much of
// the run the simulator's sim.warmup and sim.epoch spans take.
//
// Usage:
//
//	tracecheck [-summary] trace.json [more.json ...]
//
// Exits 0 when every file validates, 1 otherwise — scripts/ci.sh's
// observability lane runs it on a freshly captured trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ramp/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	summary := fs.Bool("summary", false, "print self time per span name and its share of wall time")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracecheck [-summary] trace.json [more.json ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	failed := false
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "tracecheck:", err)
			failed = true
			continue
		}
		n, err := obs.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "tracecheck: %s: ok (%d events)\n", path, n)
		if !*summary {
			continue
		}
		sum, err := obs.SummarizeChromeTrace(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		printSummary(stdout, sum)
	}
	if failed {
		return 1
	}
	return 0
}

// printSummary writes one line per span name: span count, self seconds,
// self share of wall time and total seconds, then the wall time.
func printSummary(w io.Writer, sum obs.TraceSummary) {
	fmt.Fprintf(w, "  %-28s %8s %10s %7s %10s\n", "span", "count", "self_s", "share", "total_s")
	for _, st := range sum.Spans {
		share := 0.0
		if sum.Wall > 0 {
			share = 100 * st.Self.Seconds() / sum.Wall.Seconds()
		}
		fmt.Fprintf(w, "  %-28s %8d %10.4f %6.1f%% %10.4f\n",
			st.Name, st.Count, st.Self.Seconds(), share, st.Total.Seconds())
	}
	fmt.Fprintf(w, "  %-28s %8s %10.4f\n", "wall", "", sum.Wall.Seconds())
}
