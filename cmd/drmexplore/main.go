// Command drmexplore regenerates the DRM evaluation figures:
// Figure 2 (ArchDVS DRM performance for the whole suite across
// qualification temperatures) and Figure 3 (Arch vs DVS vs ArchDVS for
// one application).
//
// Examples:
//
//	drmexplore -figure 2
//	drmexplore -figure 2 -apps MP3dec,twolf -quick
//	drmexplore -figure 3 -app bzip2
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
		figure  = flag.Int("figure", 2, "figure to regenerate (2 or 3)")
		appList = flag.String("apps", "", "comma-separated application subset for figure 2 (default: all nine)")
		appName = flag.String("app", "bzip2", "application for figure 3")
		quick   = flag.Bool("quick", false, "use short simulation runs")
		step    = flag.Float64("step", config.DefaultFreqStepHz, "DVS frequency grid step in Hz")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmexplore:", err)
		os.Exit(1)
	}
	defer rt.CloseOrLog()
	defer prof.MustStart()()

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	env := exp.NewEnv(opts).Instrument(rt.Tracer, rt.Metrics)

	switch *figure {
	case 2:
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
		rows, err := figures.Figure2(env, apps, *step)
		if err != nil {
			rt.Fatal("figure 2 failed", err)
		}
		figures.WriteFigure2(os.Stdout, rows)
		fmt.Println("\nChosen configurations:")
		for _, r := range rows {
			fmt.Printf("  %-8s", r.App)
			for i := range r.ChosenArch {
				fmt.Printf("  %s", r.ChosenArch[i])
			}
			fmt.Println()
		}
	case 3:
		app, err := trace.AppByName(*appName)
		if err != nil {
			rt.Fatal("unknown application", err)
		}
		rows, err := figures.Figure3(env, app, *step)
		if err != nil {
			rt.Fatal("figure 3 failed", err)
		}
		figures.WriteFigure3(os.Stdout, app.Name, rows)
	default:
		rt.Fatal("unknown figure", fmt.Errorf("figure %d (want 2 or 3)", *figure))
	}
}
