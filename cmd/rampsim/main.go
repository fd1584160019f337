// Command rampsim runs one application on one processor configuration
// through the full pipeline (timing simulation, power, thermal, RAMP)
// and reports performance, power, temperature and lifetime reliability.
//
// Examples:
//
//	rampsim -app MP3dec
//	rampsim -app twolf -freq 4.5e9 -tqual 370
//	rampsim -app bzip2 -window 32 -alus 2 -fpus 1 -detail
package main

import (
	"flag"
	"fmt"
	"os"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

func main() {
	var (
		appName = flag.String("app", "MP3dec", "application (MPGdec MP3dec H263enc bzip2 gzip twolf art equake ammp)")
		freqHz  = flag.Float64("freq", 4e9, "clock frequency in Hz (voltage follows the DVS curve)")
		tqual   = flag.Float64("tqual", 400, "qualification temperature T_qual in K")
		window  = flag.Int("window", 0, "instruction window size override; registers and memory queue shrink with it as in the 18 adaptations (0 = base 128)")
		alus    = flag.Int("alus", 0, "integer ALU count override (0 = base 6)")
		fpus    = flag.Int("fpus", 0, "FPU count override (0 = base 4)")
		warm    = flag.Uint64("warmup", 0, "warmup instructions (0 = default)")
		epochN  = flag.Int("epochs", 0, "measured epochs (0 = default)")
		epochI  = flag.Uint64("epoch-instrs", 0, "instructions per epoch (0 = default)")
		seed    = flag.Int64("seed", 1, "trace generator seed")
		detail  = flag.Bool("detail", false, "print per-structure FIT and temperature breakdown")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rampsim:", err)
		os.Exit(1)
	}
	defer rt.CloseOrLog()

	opts := exp.DefaultOptions()
	opts.Seed = *seed
	if *warm > 0 {
		opts.WarmupInstrs = *warm
	}
	if *epochN > 0 {
		opts.Epochs = *epochN
	}
	if *epochI > 0 {
		opts.EpochInstrs = *epochI
	}
	env := exp.NewEnv(opts).Instrument(rt.Tracer, rt.Metrics)

	app, err := trace.AppByName(*appName)
	if err != nil {
		rt.Fatal("unknown application", err)
	}
	proc := env.Base.WithArch(*window, *alus, *fpus)
	if *freqHz > 0 {
		proc = proc.WithOperatingPoint(*freqHz)
	}
	if err := proc.Validate(); err != nil {
		rt.Fatal("invalid configuration", err)
	}

	r, err := env.Evaluate(app, proc, env.Qualification(*tqual))
	if err != nil {
		rt.Fatal("evaluation failed", err)
	}

	fmt.Printf("app          %s (%s)\n", app.Name, app.Class)
	fmt.Printf("config       %s: window=%d ALUs=%d FPUs=%d @ %.2f GHz, %.3f V\n",
		proc.Name, proc.WindowSize, proc.IntALUs, proc.FPUs, proc.FreqHz/1e9, proc.VddV)
	fmt.Printf("performance  IPC=%.3f  BIPS=%.3f\n", r.IPC, r.BIPS)
	fmt.Printf("power        %.1f W average\n", r.AvgW)
	fmt.Printf("temperature  max %.1f K, die avg %.1f K, sink %.1f K\n", r.MaxTempK, r.AvgTempK, r.SinkK)
	a := r.Assessment
	fmt.Printf("reliability  FIT=%.0f (target %d at Tqual=%.0fK)  MTTF=%.1f years\n",
		a.TotalFIT, core.StandardTargetFIT, *tqual, a.MTTFYears)
	bm := a.ByMechanism()
	fmt.Printf("             EM=%.0f  SM=%.0f  TDDB=%.0f  TC=%.0f FIT\n",
		bm[core.EM], bm[core.SM], bm[core.TDDB], bm[core.TC])
	if a.TotalFIT <= core.StandardTargetFIT {
		fmt.Printf("             meets the lifetime target\n")
	} else {
		fmt.Printf("             EXCEEDS the lifetime target (DRM would throttle)\n")
	}
	if *detail {
		fmt.Printf("\n%-8s %8s %8s %8s %8s %8s %8s\n", "struct", "T(K)", "EM", "SM", "TDDB", "TC", "total")
		bs := a.ByStructure()
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			fmt.Printf("%-8s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
				s, a.AvgTempK[s], a.FIT[s][core.EM], a.FIT[s][core.SM],
				a.FIT[s][core.TDDB], a.FIT[s][core.TC], bs[s])
		}
	}
}
