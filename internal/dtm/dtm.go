// Package dtm implements DVS-based Dynamic Thermal Management for the
// DRM-vs-DTM comparison of Section 7.3.
//
// DTM enforces a thermal design point T_max: the processor must never
// exceed it. The oracular controller here mirrors the paper's: for each
// application it picks the highest DVS operating point whose peak on-chip
// temperature stays at or below T_max. Unlike DRM's T_qual, T_max is a
// hard instantaneous constraint — reliability cannot be banked over time
// against it (Section 4), which is precisely why neither technique
// subsumes the other.
package dtm

import (
	"context"
	"fmt"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

// MetricSweepPoints names the counter of operating points the DTM
// oracle's sweeps queue on an instrumented Env.
const MetricSweepPoints = "dtm_sweep_points_total"

// Choice is the DTM controller's decision.
type Choice struct {
	Proc     config.Proc
	Result   exp.Result
	MaxTempK float64
	RelPerf  float64 // BIPS relative to the base machine
	// Feasible reports whether any operating point respected T_max; if
	// none did, the choice is the coolest one.
	Feasible bool
}

// Oracle is the once-per-application oracular DTM controller.
type Oracle struct {
	Env        *exp.Env
	FreqStepHz float64
}

// NewOracle returns a DTM oracle with the default DVS grid.
func NewOracle(env *exp.Env) *Oracle {
	return &Oracle{Env: env, FreqStepHz: config.DefaultFreqStepHz}
}

// Sweep holds evaluated DVS operating points for one application,
// reusable across thermal design points.
type Sweep struct {
	App        trace.Profile
	Base       exp.Result
	Candidates []exp.Result
}

// Sweep evaluates the base machine and the full DVS ladder for app.
func (o *Oracle) Sweep(app trace.Profile) (*Sweep, error) {
	return o.SweepCtx(context.Background(), app)
}

// SweepCtx is Sweep with cancellation: once ctx is done, queued ladder
// evaluations never start and in-flight ones stop at their next epoch
// boundary.
func (o *Oracle) SweepCtx(ctx context.Context, app trace.Profile) (*Sweep, error) {
	qual := o.Env.Qualification(400) // DTM ignores reliability; any point works
	jobs := []exp.EvalJob{{App: app, Proc: o.Env.Base, Qual: qual}}
	for _, f := range config.DVSFrequencies(o.FreqStepHz) {
		jobs = append(jobs, exp.EvalJob{App: app, Proc: o.Env.Base.WithOperatingPoint(f), Qual: qual})
	}
	ctx, span := o.Env.Trace.Start(ctx, "dtm.sweep")
	if span.Enabled() {
		span.Annotate(obs.Str("app", app.Name), obs.Int("points", int64(len(jobs))))
	}
	defer span.End()
	o.Env.Metrics.Counter(MetricSweepPoints).Add(int64(len(jobs)))
	results, err := o.Env.EvaluateAllCtx(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return &Sweep{App: app, Base: results[0], Candidates: results[1:]}, nil
}

// Select picks the best-performing operating point whose peak
// temperature respects tmaxK. The scan tracks indices rather than
// copying each candidate Result (a large struct) into a Choice; a DVS
// ladder is consulted once per thermal design point across every
// figure regeneration.
func (s *Sweep) Select(tmaxK float64) (Choice, error) {
	if len(s.Candidates) == 0 {
		return Choice{}, fmt.Errorf("dtm: empty candidate set")
	}
	best, coolest := -1, 0
	var bestRel float64
	for i := range s.Candidates {
		r := &s.Candidates[i]
		if r.MaxTempK <= tmaxK {
			rel := r.BIPS / s.Base.BIPS
			if best < 0 || rel > bestRel {
				best, bestRel = i, rel
			}
		}
		if r.MaxTempK < s.Candidates[coolest].MaxTempK {
			coolest = i
		}
	}
	pick, feasible := coolest, false
	if best >= 0 {
		pick, feasible = best, true
	}
	r := s.Candidates[pick]
	return Choice{
		Proc:     r.Proc,
		Result:   r,
		MaxTempK: r.MaxTempK,
		RelPerf:  r.BIPS / s.Base.BIPS,
		Feasible: feasible,
	}, nil
}
