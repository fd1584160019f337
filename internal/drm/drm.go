// Package drm implements Dynamic Reliability Management (Section 4): the
// processor adapts to the running application so that its lifetime
// reliability (FIT value) meets the qualification target, throttling
// performance on under-designed processors (cheap T_qual) and harvesting
// extra performance on over-designed ones (expensive T_qual).
//
// As in the paper's evaluation (Section 5), the controller here is an
// oracle that adapts once per application: it explores the adaptation
// space, evaluates each configuration's performance and FIT with full
// knowledge of the application, and picks the best-performing
// configuration that still meets the target. Three adaptation spaces are
// modelled:
//
//   - Arch: the 18 microarchitectural configurations (instruction window
//     size, ALU count, FPU count) at the base voltage and frequency; the
//     base machine is already the most aggressive configuration, so Arch
//     can only reduce performance (relative performance <= 1).
//   - DVS: dynamic voltage and frequency scaling from 2.5 to 5.0 GHz on
//     the most aggressive microarchitecture.
//   - ArchDVS: the cross product.
package drm

import (
	"context"
	"fmt"

	"ramp/internal/check"
	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

// Metric names the DRM oracle registers on an instrumented Env.
const (
	MetricSweepPoints = "drm_sweep_points_total" // configurations queued by sweeps
	MetricSelects     = "drm_selects_total"      // qualification-point selections
)

// Adaptation selects a DRM adaptation space.
type Adaptation int

// The paper's three adaptation spaces (Section 5).
const (
	Arch Adaptation = iota
	DVS
	ArchDVS
)

var adaptationNames = map[Adaptation]string{
	Arch: "Arch", DVS: "DVS", ArchDVS: "ArchDVS",
}

// String returns the adaptation's paper name.
func (a Adaptation) String() string {
	if n, ok := adaptationNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Adaptation(%d)", int(a))
}

// Oracle is the once-per-application oracular DRM controller.
type Oracle struct {
	Env *exp.Env
	// FreqStepHz is the DVS exploration grid (default 0.125 GHz).
	FreqStepHz float64
}

// NewOracle returns an oracle over env with the default DVS grid.
func NewOracle(env *exp.Env) *Oracle {
	return &Oracle{Env: env, FreqStepHz: 0.125e9}
}

// Candidates returns the adaptation space's configurations.
func (o *Oracle) Candidates(a Adaptation) []config.Proc {
	switch a {
	case Arch:
		return config.ArchConfigs()
	case DVS:
		var out []config.Proc
		for _, f := range config.DVSFrequencies(o.FreqStepHz) {
			out = append(out, o.Env.Base.WithOperatingPoint(f))
		}
		return out
	case ArchDVS:
		var out []config.Proc
		for _, arch := range config.ArchConfigs() {
			for _, f := range config.DVSFrequencies(o.FreqStepHz) {
				out = append(out, arch.WithOperatingPoint(f))
			}
		}
		return out
	default:
		panic(fmt.Sprintf("drm: unknown adaptation %v", a))
	}
}

// Sweep holds the evaluated adaptation space for one application,
// reusable across qualification points (the expensive part — simulation,
// power, thermal — does not depend on T_qual).
type Sweep struct {
	App        trace.Profile
	Base       exp.Result
	Candidates []exp.Result
}

// Sweep evaluates the base machine and every candidate configuration for
// app. The qualification used here only fills the initial assessments;
// Select requalifies against the point of interest.
func (o *Oracle) Sweep(app trace.Profile, a Adaptation) (*Sweep, error) {
	return o.SweepCtx(context.Background(), app, a)
}

// SweepCtx is Sweep with cancellation: once ctx is done, queued
// candidate evaluations never start and in-flight ones stop at their
// next epoch boundary (a full ArchDVS sweep is the most expensive
// request the serve layer accepts, so abandoned sweeps must not burn
// simulation time).
func (o *Oracle) SweepCtx(ctx context.Context, app trace.Profile, a Adaptation) (*Sweep, error) {
	qual := o.Env.Qualification(400) // placeholder; Select requalifies
	cands := o.Candidates(a)
	ctx, span := o.Env.Trace.Start(ctx, "drm.sweep")
	if span.Enabled() {
		span.Annotate(obs.Str("app", app.Name), obs.Str("space", a.String()), obs.Int("points", int64(len(cands)+1)))
	}
	defer span.End()
	o.Env.Metrics.Counter(MetricSweepPoints).Add(int64(len(cands) + 1))
	jobs := make([]exp.EvalJob, 0, len(cands)+1)
	jobs = append(jobs, exp.EvalJob{App: app, Proc: o.Env.Base, Qual: qual})
	for _, c := range cands {
		jobs = append(jobs, exp.EvalJob{App: app, Proc: c, Qual: qual})
	}
	results, err := o.Env.EvaluateAllCtx(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return &Sweep{App: app, Base: results[0], Candidates: results[1:]}, nil
}

// Choice is the oracle's decision for one qualification point.
type Choice struct {
	Proc    config.Proc
	Result  exp.Result
	FIT     float64
	RelPerf float64 // BIPS relative to the base non-adaptive machine
	// Feasible reports whether any configuration met the FIT target; if
	// none did, the choice is the configuration with the lowest FIT (the
	// processor throttles as far as it can and still fails its
	// qualification — an unacceptable design point, Section 4).
	Feasible bool
}

// Select picks the best-performing candidate meeting the FIT target at
// the given qualification point. It builds the point's budget once and
// applies it to each candidate's exposure in candidate order — pure
// arithmetic, serial and allocation-free — keeping only the running best
// and fallback; ties break towards the earlier candidate. The choice's
// Result carries the pick's assessment at qual.
func (s *Sweep) Select(env *exp.Env, qual core.Qualification) (Choice, error) {
	return s.SelectCtx(context.Background(), env, qual)
}

// SelectCtx is Select with cancellation, checked between candidates.
func (s *Sweep) SelectCtx(ctx context.Context, env *exp.Env, qual core.Qualification) (Choice, error) {
	if len(s.Candidates) == 0 {
		return Choice{}, fmt.Errorf("drm: empty candidate set")
	}
	ctx, span := env.Trace.Start(ctx, "drm.select")
	if span.Enabled() {
		span.Annotate(obs.Str("app", s.App.Name), obs.Float("tqual_k", qual.TqualK), obs.Int("candidates", int64(len(s.Candidates))))
	}
	defer span.End()
	env.Metrics.Counter(MetricSelects).Inc()
	budget, err := core.NewBudget(env.FP, env.Params, qual)
	if err != nil {
		return Choice{}, err
	}
	best, fallback := -1, -1
	var bestRel float64
	var bestA, fallbackA core.Assessment
	for i := range s.Candidates {
		if err := ctx.Err(); err != nil {
			return Choice{}, err
		}
		c := &s.Candidates[i]
		if c.Exposure == nil {
			return Choice{}, fmt.Errorf("drm: candidate %d (%s/%s) has no RAMP exposure", i, c.App, c.Proc.Name)
		}
		a := budget.Assess(c.Exposure)
		rel := c.BIPS / s.Base.BIPS
		check.NonNegative("drm.Sweep.Select.FIT", a.TotalFIT)
		check.NonNegative("drm.Sweep.Select.RelPerf", rel)
		if a.TotalFIT <= qual.TargetFIT && (best < 0 || rel > bestRel) {
			best, bestRel, bestA = i, rel, a
		}
		if fallback < 0 || a.TotalFIT < fallbackA.TotalFIT {
			fallback, fallbackA = i, a
		}
	}
	pick, a, feasible := fallback, fallbackA, false
	if best >= 0 {
		pick, a, feasible = best, bestA, true
	}
	r := s.Candidates[pick]
	r.Assessment = a
	return Choice{
		Proc:     r.Proc,
		Result:   r,
		FIT:      a.TotalFIT,
		RelPerf:  r.BIPS / s.Base.BIPS,
		Feasible: feasible,
	}, nil
}

// AdaptationByName parses a paper adaptation-space name ("Arch", "DVS",
// "ArchDVS"; used by the serve layer's request validation).
func AdaptationByName(name string) (Adaptation, error) {
	for a, n := range adaptationNames {
		if n == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("drm: unknown adaptation %q (want Arch, DVS or ArchDVS)", name)
}
