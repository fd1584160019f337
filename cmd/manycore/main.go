// Command manycore sweeps die sizes and scheduling policies: it tiles
// the R10000-like core into N-core dies, schedules the nine-application
// suite under the static, coolest-core and wear-leveling policies, and
// prints the lifetime-at-iso-performance comparison against the paper's
// single-core DRM baseline.
//
// Examples:
//
//	manycore
//	manycore -cores 4,16 -tqual 370
//	manycore -cores 2 -quick          # short run, used by smoke.sh/CI
//	manycore -cores 8 -trace out.json # per-epoch scheduling spans
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/obs"
)

func main() {
	var (
		coresCSV = flag.String("cores", "1,2,4,8,16", "comma-separated die sizes to sweep")
		tqual    = flag.Float64("tqual", 400, "qualification temperature T_qual in K")
		epochs   = flag.Int("epochs", 0, "scheduling epochs per run (0 = twice the evaluation epochs)")
		seed     = flag.Int64("seed", 1, "trace generator seed")
		quick    = flag.Bool("quick", false, "short evaluation runs (smoke tests)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "manycore:", err)
		os.Exit(1)
	}
	defer rt.CloseOrLog()

	ns, err := parseCores(*coresCSV)
	if err != nil {
		rt.Fatal("bad -cores", err)
	}
	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = *seed
	env := exp.NewEnv(opts).Instrument(rt.Tracer, rt.Metrics)

	table, err := figures.ManycoreSweep(context.Background(), env, ns, *tqual, *epochs)
	if err != nil {
		rt.Fatal("sweep failed", err)
	}
	table.Write(os.Stdout)
}

// parseCores parses the -cores list.
func parseCores(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	ns := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", p)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("empty core list")
	}
	return ns, nil
}
