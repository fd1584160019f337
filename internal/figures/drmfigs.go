// Drivers for the DRM evaluation figures (Sections 7.1-7.3).
package figures

import (
	"context"
	"fmt"
	"io"

	"ramp/internal/core"
	"ramp/internal/drm"
	"ramp/internal/dtm"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

// Figure2Row is one application's DRM (ArchDVS) performance across
// qualification points, relative to the base non-adaptive processor.
type Figure2Row struct {
	App string
	// RelPerf[i] corresponds to Figure2TqualsK[i]. 1.0 = base performance.
	RelPerf []float64
	// Feasible[i] reports whether the FIT target was attainable at all;
	// when false, RelPerf holds the throttled-but-still-failing point.
	Feasible []bool
	// ChosenGHz[i] is the frequency of the selected configuration.
	ChosenGHz []float64
	// ChosenArch[i] names the selected microarchitecture.
	ChosenArch []string
}

// Figure2 reproduces Figure 2: ArchDVS DRM performance for all nine
// applications at T_qual in {400, 370, 345, 325} K.
// stepHz sets the DVS grid (0 = the oracle default, config.DefaultFreqStepHz).
func Figure2(e *exp.Env, apps []trace.Profile, stepHz float64) ([]Figure2Row, error) {
	ctx, span := figSpan(context.Background(), e, "figures.figure2")
	defer span.End()
	if apps == nil {
		apps = trace.Apps()
	}
	oracle := drm.NewOracle(e)
	if stepHz > 0 {
		oracle.FreqStepHz = stepHz
	}
	rows := make([]Figure2Row, 0, len(apps))
	for _, app := range apps {
		sweep, err := oracle.SweepCtx(ctx, app, drm.ArchDVS)
		if err != nil {
			return nil, err
		}
		row := Figure2Row{
			App:        app.Name,
			RelPerf:    make([]float64, 0, len(Figure2TqualsK)),
			Feasible:   make([]bool, 0, len(Figure2TqualsK)),
			ChosenGHz:  make([]float64, 0, len(Figure2TqualsK)),
			ChosenArch: make([]string, 0, len(Figure2TqualsK)),
		}
		for _, tq := range Figure2TqualsK {
			choice, err := sweep.SelectCtx(ctx, e, e.Qualification(tq))
			if err != nil {
				return nil, err
			}
			row.RelPerf = append(row.RelPerf, choice.RelPerf)
			row.Feasible = append(row.Feasible, choice.Feasible)
			row.ChosenGHz = append(row.ChosenGHz, choice.Proc.FreqHz/1e9)
			row.ChosenArch = append(row.ChosenArch, choice.Proc.Name)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFigure2 prints the figure's series.
func WriteFigure2(w io.Writer, rows []Figure2Row) {
	fmt.Fprintf(w, "Figure 2: ArchDVS DRM performance relative to base (4 GHz)\n")
	fmt.Fprintf(w, "  %-8s", "App")
	for _, tq := range Figure2TqualsK {
		fmt.Fprintf(w, "  Tq=%3.0fK", tq)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s", r.App)
		for i, p := range r.RelPerf {
			mark := ' '
			if !r.Feasible[i] {
				mark = '!'
			}
			fmt.Fprintf(w, "  %6.3f%c", p, mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  ('!' = FIT target unattainable even fully throttled)\n")
}

// Figure3Row is one adaptation's performance across T_qual for a single
// application (the paper shows bzip2).
type Figure3Row struct {
	Adaptation string
	// RelPerf[i] corresponds to Figure3TqualsK[i].
	RelPerf  []float64
	Feasible []bool
}

// Figure3 reproduces Figure 3: Arch vs DVS vs ArchDVS for one
// application across qualification temperatures.
// stepHz sets the DVS grid (0 = the oracle default, config.DefaultFreqStepHz).
func Figure3(e *exp.Env, app trace.Profile, stepHz float64) ([]Figure3Row, error) {
	ctx, span := figSpan(context.Background(), e, "figures.figure3")
	defer span.End()
	oracle := drm.NewOracle(e)
	if stepHz > 0 {
		oracle.FreqStepHz = stepHz
	}
	adaptations := []drm.Adaptation{drm.Arch, drm.DVS, drm.ArchDVS}
	rows := make([]Figure3Row, 0, len(adaptations))
	for _, a := range adaptations {
		sweep, err := oracle.SweepCtx(ctx, app, a)
		if err != nil {
			return nil, err
		}
		row := Figure3Row{
			Adaptation: a.String(),
			RelPerf:    make([]float64, 0, len(Figure3TqualsK)),
			Feasible:   make([]bool, 0, len(Figure3TqualsK)),
		}
		for _, tq := range Figure3TqualsK {
			choice, err := sweep.SelectCtx(ctx, e, e.Qualification(tq))
			if err != nil {
				return nil, err
			}
			row.RelPerf = append(row.RelPerf, choice.RelPerf)
			row.Feasible = append(row.Feasible, choice.Feasible)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFigure3 prints the figure's series.
func WriteFigure3(w io.Writer, app string, rows []Figure3Row) {
	fmt.Fprintf(w, "Figure 3: DRM adaptations compared (%s)\n", app)
	fmt.Fprintf(w, "  %-8s", "Tqual K")
	for _, tq := range Figure3TqualsK {
		fmt.Fprintf(w, " %8.0f", tq)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s", r.Adaptation)
		for i, p := range r.RelPerf {
			mark := ' '
			if !r.Feasible[i] {
				mark = '!'
			}
			fmt.Fprintf(w, " %7.3f%c", p, mark)
		}
		fmt.Fprintln(w)
	}
}

// Figure4Row holds, for one application, the DVS frequencies chosen by
// DRM (T_qual on the x-axis) and DTM (T_max on the x-axis).
type Figure4Row struct {
	App string
	// DRMFreqGHz[i] / DTMFreqGHz[i] correspond to Figure4TempsK[i].
	DRMFreqGHz []float64
	DTMFreqGHz []float64
	// DRMPeakK[i] is the peak temperature of the DRM choice — above the
	// x-axis temperature it violates the thermal constraint. DTMFit[i] is
	// the FIT of the DTM choice at qualification T — above the target it
	// violates the reliability constraint.
	DRMPeakK []float64
	DTMFit   []float64
}

// Figure4 reproduces Figure 4: the frequency chosen by DVS for DRM
// (DVS-Rel) and for DTM (DVS-Temp) at each temperature, for every
// application. The same DVS sweep feeds both controllers.
// stepHz sets the DVS grid (0 = the oracle default, config.DefaultFreqStepHz).
func Figure4(e *exp.Env, apps []trace.Profile, stepHz float64) ([]Figure4Row, error) {
	ctx, span := figSpan(context.Background(), e, "figures.figure4")
	defer span.End()
	if apps == nil {
		apps = trace.Apps()
	}
	oracle := drm.NewOracle(e)
	if stepHz > 0 {
		oracle.FreqStepHz = stepHz
	}
	rows := make([]Figure4Row, 0, len(apps))
	for _, app := range apps {
		sweep, err := oracle.SweepCtx(ctx, app, drm.DVS)
		if err != nil {
			return nil, err
		}
		dtmSweep := &dtm.Sweep{App: app, Base: sweep.Base, Candidates: sweep.Candidates}
		row := Figure4Row{
			App:        app.Name,
			DRMFreqGHz: make([]float64, 0, len(Figure4TempsK)),
			DTMFreqGHz: make([]float64, 0, len(Figure4TempsK)),
			DRMPeakK:   make([]float64, 0, len(Figure4TempsK)),
			DTMFit:     make([]float64, 0, len(Figure4TempsK)),
		}
		for _, t := range Figure4TempsK {
			qual := e.Qualification(t)
			drmChoice, err := sweep.SelectCtx(ctx, e, qual)
			if err != nil {
				return nil, err
			}
			dtmChoice, err := dtmSweep.Select(t)
			if err != nil {
				return nil, err
			}
			row.DRMFreqGHz = append(row.DRMFreqGHz, drmChoice.Proc.FreqHz/1e9)
			row.DTMFreqGHz = append(row.DTMFreqGHz, dtmChoice.Proc.FreqHz/1e9)
			row.DRMPeakK = append(row.DRMPeakK, drmChoice.Result.MaxTempK)
			a, err := e.Requalify(dtmChoice.Result, qual)
			if err != nil {
				return nil, err
			}
			row.DTMFit = append(row.DTMFit, a.TotalFIT)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFigure4 prints the figure's series plus the cross-violation
// analysis the paper draws from it.
func WriteFigure4(w io.Writer, rows []Figure4Row) {
	fmt.Fprintf(w, "Figure 4: DVS frequency (GHz) chosen by DRM (Tqual) vs DTM (Tmax)\n")
	fmt.Fprintf(w, "  %-8s %-8s", "App", "policy")
	for _, t := range Figure4TempsK {
		fmt.Fprintf(w, " %7.0fK", t)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-8s", r.App, "DVS-Rel")
		for _, f := range r.DRMFreqGHz {
			fmt.Fprintf(w, " %8.2f", f)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-8s %-8s", "", "DVS-Temp")
		for _, f := range r.DTMFreqGHz {
			fmt.Fprintf(w, " %8.2f", f)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n  Cross-violations (the paper's Section 7.3 argument):\n")
	for _, r := range rows {
		for i, t := range Figure4TempsK {
			if r.DRMPeakK[i] > t+0.01 {
				fmt.Fprintf(w, "  %-8s at %3.0fK: DRM choice %.2f GHz peaks at %.0fK — violates the thermal limit\n",
					r.App, t, r.DRMFreqGHz[i], r.DRMPeakK[i])
			}
			if r.DTMFit[i] > core.StandardTargetFIT {
				fmt.Fprintf(w, "  %-8s at %3.0fK: DTM choice %.2f GHz has FIT %.0f — violates the reliability target\n",
					r.App, t, r.DTMFreqGHz[i], r.DTMFit[i])
			}
		}
	}
}
