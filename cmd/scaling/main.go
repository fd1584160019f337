// Command scaling runs the technology-scaling study behind Section 1.2
// (and the paper's companion DSN 2004 work): the base microarchitecture
// ported across the 180/130/90/65 nm generations with a fixed cooling
// solution and qualification methodology, reported per core and per
// constant-area die.
package main

import (
	"flag"
	"fmt"
	"os"

	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use short simulation runs")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
	defer rt.CloseOrLog()

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	rows, err := figures.ScalingStudy(opts, rt.Tracer, rt.Metrics)
	if err != nil {
		rt.Fatal("scaling study failed", err)
	}
	figures.WriteScaling(os.Stdout, rows)
}
