// Package figures contains the experiment drivers: one function per
// table/figure of the paper's evaluation (Section 7). Each returns plain
// row data plus a Write function that prints the same rows/series the
// paper presents. The heavy lifting (simulate, power, thermal, RAMP,
// adaptation-space search) lives in exp, drm and dtm.
package figures

import (
	"context"
	"fmt"
	"io"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

// figSpan opens the span of one figure/table regeneration on the
// environment's tracer (nil-safe: a disabled span and ctx itself when
// uninstrumented). The driver passes the returned context to every Ctx
// call it makes, so the sweeps and evaluations it starts are the span's
// children, and defers End on the span, so it covers the whole driver.
func figSpan(ctx context.Context, e *exp.Env, name string) (context.Context, obs.Span) {
	return e.Trace.Start(ctx, name)
}

// Figure2TqualsK are the qualification temperatures of Figure 2.
var Figure2TqualsK = []float64{400, 370, 345, 325}

// Figure3TqualsK are the qualification temperatures swept in Figure 3.
var Figure3TqualsK = []float64{325, 335, 345, 360, 370, 400}

// Figure4TempsK are the temperatures of Figure 4 (T_qual for DRM, T_max
// for DTM).
var Figure4TempsK = []float64{325, 335, 345, 360, 370, 400}

// ---- Table 1 ----

// Table1 reproduces Table 1: the base processor's parameters. It is
// configuration, not measurement; regenerating it verifies the build's
// defaults against the paper.
type Table1 struct {
	Tech config.Tech
	Proc config.Proc
}

// NewTable1 returns the environment's Table 1.
func NewTable1(e *exp.Env) Table1 {
	return Table1{Tech: e.Tech, Proc: e.Base}
}

// Write prints the table.
func (t Table1) Write(w io.Writer) {
	p := t.Proc
	fmt.Fprintf(w, "Table 1: Base non-adaptive processor\n")
	fmt.Fprintf(w, "  Process technology            %.0f nm\n", t.Tech.ProcessNM)
	fmt.Fprintf(w, "  Vdd                           %.1f V\n", p.VddV)
	fmt.Fprintf(w, "  Processor frequency           %.1f GHz\n", p.FreqHz/1e9)
	fmt.Fprintf(w, "  Core size (no L2)             %.2f mm^2\n", floorplanArea())
	fmt.Fprintf(w, "  Leakage density @383K         %.1f W/mm^2\n", t.Tech.LeakageWPerMM2)
	fmt.Fprintf(w, "  Fetch/retire rate             %d per cycle\n", p.FetchWidth)
	fmt.Fprintf(w, "  Functional units              %d Int, %d FP, %d Addr gen\n", p.IntALUs, p.FPUs, p.AGUs)
	fmt.Fprintf(w, "  Int latencies                 %d/%d/%d add/mul/div\n", p.IntAddLat, p.IntMulLat, p.IntDivLat)
	fmt.Fprintf(w, "  FP latencies                  %d default, %d div (not pipelined)\n", p.FPLat, p.FPDivLat)
	fmt.Fprintf(w, "  Instruction window            %d entries\n", p.WindowSize)
	fmt.Fprintf(w, "  Register file                 %d int + %d FP\n", p.IntRegs, p.FPRegs)
	fmt.Fprintf(w, "  Memory queue                  %d entries\n", p.MemQueueSize)
	fmt.Fprintf(w, "  Branch prediction             %dKB bimodal agree, %d-entry RAS\n", p.BPredBytes/1024, p.RASEntries)
	fmt.Fprintf(w, "  L1D                           %dKB %d-way, %dB line, %d ports, %d MSHRs\n",
		p.L1D.SizeBytes/1024, p.L1D.Assoc, p.L1D.LineBytes, p.L1D.Ports, p.L1D.MSHRs)
	fmt.Fprintf(w, "  L1I                           %dKB %d-way\n", p.L1I.SizeBytes/1024, p.L1I.Assoc)
	fmt.Fprintf(w, "  L2 (off-chip)                 %dMB %d-way, hit %.0f cycles @4GHz\n",
		p.L2.SizeBytes/(1<<20), p.L2.Assoc, p.L2.HitLatencySec*4e9)
	fmt.Fprintf(w, "  Main memory                   %.0f cycles @4GHz\n", p.MemLatencySec*4e9)
}

func floorplanArea() float64 {
	return floorplan.R10000Like().TotalAreaMM2()
}

// ---- Table 2 ----

// Table2Row is one application's base-machine characterisation.
type Table2Row struct {
	App         string
	Class       string
	IPC         float64
	PowerW      float64
	PaperIPC    float64
	PaperPowerW float64
	MaxTempK    float64
}

// Table2 reproduces Table 2: per-application IPC and power (dynamic +
// leakage) on the base non-adaptive processor.
func Table2(e *exp.Env) ([]Table2Row, error) {
	ctx, span := figSpan(context.Background(), e, "figures.table2")
	defer span.End()
	apps := trace.Apps()
	qual := e.Qualification(400)
	jobs := make([]exp.EvalJob, len(apps))
	for i, a := range apps {
		jobs[i] = exp.EvalJob{App: a, Proc: e.Base, Qual: qual}
	}
	results, err := e.EvaluateAllCtx(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(apps))
	for i, a := range apps {
		rows[i] = Table2Row{
			App: a.Name, Class: a.Class,
			IPC: results[i].IPC, PowerW: results[i].AvgW,
			PaperIPC: a.PaperIPC, PaperPowerW: a.PaperPowerW,
			MaxTempK: results[i].MaxTempK,
		}
	}
	return rows, nil
}

// WriteTable2 prints Table 2 with paper reference columns.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: Workload description (base processor, 4 GHz)\n")
	fmt.Fprintf(w, "  %-8s %-11s %6s %6s   %9s %9s   %6s\n",
		"App", "Class", "IPC", "W", "IPC(ppr)", "W(ppr)", "Tmax K")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-11s %6.2f %6.1f   %9.1f %9.1f   %6.0f\n",
			r.App, r.Class, r.IPC, r.PowerW, r.PaperIPC, r.PaperPowerW, r.MaxTempK)
	}
}

// ---- Figure 1 ----

// Figure1Row is one (application, T_qual) point: the application's FIT
// value on a processor qualified at that temperature.
type Figure1Row struct {
	App    string
	TqualK float64
	FIT    float64
	Meets  bool
}

// Figure1 reproduces the motivating figure: two contrasting applications
// (the hottest and one of the coolest) on three processors of decreasing
// qualification cost. On the expensive processor both meet the target;
// on the middle one only the cool application does; on the cheap one
// neither does.
func Figure1(e *exp.Env) ([]Figure1Row, error) {
	ctx, span := figSpan(context.Background(), e, "figures.figure1")
	defer span.End()
	apps := []trace.Profile{trace.MP3dec(), trace.Twolf()} // A: hot, B: cool
	// Three qualification cost points chosen so the paper's staircase
	// appears: on processor 1 both apps meet the target, on processor 2
	// only the cool app does, on processor 3 neither does.
	tquals := []float64{395, 353, 330}
	var rows []Figure1Row
	for _, app := range apps {
		r, err := e.EvaluateCtx(ctx, app, e.Base, e.Qualification(400))
		if err != nil {
			return nil, err
		}
		for _, tq := range tquals {
			a, err := e.Requalify(r, e.Qualification(tq))
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure1Row{
				App: app.Name, TqualK: tq, FIT: a.TotalFIT,
				Meets: a.TotalFIT <= core.StandardTargetFIT,
			})
		}
	}
	return rows, nil
}

// WriteFigure1 prints the figure's data.
func WriteFigure1(w io.Writer, rows []Figure1Row) {
	fmt.Fprintf(w, "Figure 1: FIT vs qualification cost (target %d FIT)\n", core.StandardTargetFIT)
	fmt.Fprintf(w, "  %-8s %8s %10s %s\n", "App", "Tqual K", "FIT", "meets target?")
	for _, r := range rows {
		mark := "no (needs DRM throttling)"
		if r.Meets {
			mark = "yes (reliability slack)"
		}
		fmt.Fprintf(w, "  %-8s %8.0f %10.0f %s\n", r.App, r.TqualK, r.FIT, mark)
	}
}
