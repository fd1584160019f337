// Command drmdtm regenerates Figure 4: for every application and every
// temperature point, the DVS frequency chosen by DRM (interpreting the
// temperature as T_qual) versus DTM (interpreting it as T_max), plus the
// cross-violation analysis showing that neither policy subsumes the
// other (Section 7.3).
//
// Examples:
//
//	drmdtm
//	drmdtm -apps MP3dec,twolf -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/obs"
	"ramp/internal/profiling"
	"ramp/internal/trace"
)

func main() {
	var (
		appList = flag.String("apps", "", "comma-separated application subset (default: all nine)")
		quick   = flag.Bool("quick", false, "use short simulation runs")
		step    = flag.Float64("step", config.DefaultFreqStepHz, "DVS frequency grid step in Hz")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmdtm:", err)
		os.Exit(1)
	}
	defer rt.CloseOrLog()
	defer prof.MustStart()()

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	env := exp.NewEnv(opts).Instrument(rt.Tracer, rt.Metrics)

	var apps []trace.Profile
	if *appList != "" {
		for _, name := range strings.Split(*appList, ",") {
			a, err := trace.AppByName(strings.TrimSpace(name))
			if err != nil {
				rt.Fatal("unknown application", err)
			}
			apps = append(apps, a)
		}
	}
	rows, err := figures.Figure4(env, apps, *step)
	if err != nil {
		rt.Fatal("figure 4 failed", err)
	}
	figures.WriteFigure4(os.Stdout, rows)
}
