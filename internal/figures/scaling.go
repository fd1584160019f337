// Technology-scaling study: the trend behind Section 1.2 and the
// paper's companion work ("The Impact of Scaling on Processor Lifetime
// Reliability", reference [20]). The same microarchitecture is ported
// across four process generations — die shrinking, clock and leakage
// rising, supply voltage barely moving — and each generation's lifetime
// reliability is evaluated with the identical RAMP methodology and an
// identical cooling solution.
package figures

import (
	"context"
	"fmt"
	"io"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/power"
	"ramp/internal/trace"
)

// ScalingRow is one technology generation's result, averaged over the
// sample applications.
type ScalingRow struct {
	NodeNM    float64
	DieMM2    float64
	VddV      float64
	FreqGHz   float64
	AvgPowerW float64
	DensityW  float64 // average power density, W/mm^2
	PeakTempK float64 // max across the sample apps
	AvgFIT    float64 // per-core suite-average FIT at the shared T_qual
	MTTFYears float64 // per-core MTTF
	PerfBIPS  float64 // suite-average throughput per core
	// FullDieFIT is the Section 1.2 "increasing transistor count" view:
	// a constant 155 mm^2 die (the 180 nm core's footprint) fully
	// populated with core instances at each node. Cores are a series
	// failure system (SOFR), so die FIT is per-core FIT times the
	// instance count (180/node)^2.
	FullDieFIT float64
}

// ScalingApps are the three contrasting sample applications used by the
// study (hot multimedia, mid int, cool int).
func ScalingApps() []trace.Profile {
	return []trace.Profile{trace.MP3dec(), trace.Bzip2(), trace.Twolf()}
}

// ScalingStudy runs the ladder. The qualification point (T_qual = 400 K
// with each node's own nominal V/f) and the package/cooling stack are
// held constant across generations, so the FIT trend isolates the
// technology effects: rising power density and leakage, non-scaling
// voltage. The study builds one environment per technology node
// internally, so callers cannot pre-instrument an Env; instead the
// tracer and registry passed here are attached to every per-node
// environment (nil disables either).
func ScalingStudy(opts exp.Options, tr *obs.Tracer, reg *obs.Registry) ([]ScalingRow, error) {
	base65 := config.Base()
	budget65 := power.DefaultMaxDynamic()
	ctx := context.Background()

	var rows []ScalingRow
	for _, node := range config.TechLadder() {
		if err := node.Validate(); err != nil {
			return nil, err
		}
		fp, err := exp.NewEnv(opts).FP.Scale(node.LinearScale())
		if err != nil {
			return nil, err
		}
		// Dynamic budget: switched capacitance scales with feature size,
		// power with C·V²·f.
		var budget power.Vector
		vr := node.VddV / base65.VddV
		fr := node.FreqHz / base65.FreqHz
		for i, w := range budget65 {
			budget[i] = w * node.LinearScale() * vr * vr * fr
		}
		env := exp.NewCustomEnv(node.Tech(), node.Proc(), fp, budget, opts).Instrument(tr, reg)
		qual := env.Qualification(400)
		_, nodeSpan := tr.Start(ctx, "figures.scaling.node")
		nodeSpan.Annotate(obs.Float("node_nm", node.NodeNM))

		row := ScalingRow{
			NodeNM:  node.NodeNM,
			DieMM2:  fp.TotalAreaMM2(),
			VddV:    node.VddV,
			FreqGHz: node.FreqHz / 1e9,
		}
		apps := ScalingApps()
		for _, app := range apps {
			r, err := env.Evaluate(app, env.Base, qual)
			if err != nil {
				return nil, fmt.Errorf("scaling %vnm/%s: %w", node.NodeNM, app.Name, err)
			}
			row.AvgPowerW += r.AvgW / float64(len(apps))
			row.AvgFIT += r.FIT() / float64(len(apps))
			row.PerfBIPS += r.BIPS / float64(len(apps))
			if r.MaxTempK > row.PeakTempK {
				row.PeakTempK = r.MaxTempK
			}
		}
		row.DensityW = row.AvgPowerW / row.DieMM2
		if row.AvgFIT > 0 {
			row.MTTFYears = 1e9 / row.AvgFIT / 8760
		}
		instances := (180.0 / node.NodeNM) * (180.0 / node.NodeNM)
		row.FullDieFIT = row.AvgFIT * instances
		nodeSpan.End()
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteScaling prints the study.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintf(w, "Technology scaling study (fixed microarchitecture, cooling and T_qual=400K)\n")
	fmt.Fprintf(w, "  %6s %8s %6s %7s %8s %9s %8s %10s %10s\n",
		"node", "die mm2", "Vdd", "GHz", "avg W", "W/mm2", "peak K", "core FIT", "die FIT")
	for _, r := range rows {
		fmt.Fprintf(w, "  %4.0fnm %8.1f %6.2f %7.1f %8.1f %9.2f %8.0f %10.0f %10.0f\n",
			r.NodeNM, r.DieMM2, r.VddV, r.FreqGHz, r.AvgPowerW, r.DensityW,
			r.PeakTempK, r.AvgFIT, r.FullDieFIT)
	}
	fmt.Fprintf(w, "  Per core, shrinking the same design helps (total power falls with C*V^2*f).\n")
	fmt.Fprintf(w, "  Per die, Section 1.2's transistor-count growth reverses the trend: a full\n")
	fmt.Fprintf(w, "  die packs (180/node)^2 cores whose failure rates add (SOFR), and past\n")
	fmt.Fprintf(w, "  ~90 nm the count growth plus leakage overwhelm the per-core gains.\n")
}
