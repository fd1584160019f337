// POST /v1/fleet: fleet-scale Monte Carlo lifetime simulation over the
// service's shared evaluation environment. One request runs the
// (app, configuration) evaluation once — through the exp cache, so
// repeated fleet queries over the same design point never re-simulate —
// requalifies the assessment at each requested T_qual (each is one DRM
// policy), and hands the policies to the fleet engine. The simulated
// population is deterministic in (request, seed): identical requests
// produce byte-identical responses, which a small bounded response
// cache exploits to answer repeats without re-running the Monte Carlo.
package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/fleet"
	"ramp/internal/trace"
)

// Fleet request bounds. The chip ceiling keeps a single request's
// compute inside the same envelope as a full sweep.
const (
	fleetDefaultChips = 100_000
	fleetMinChips     = 1_000
	fleetMaxChips     = 2_000_000
	fleetMaxTquals    = 8
	fleetMaxSpares    = 4
	fleetCacheMax     = 512
)

// FleetRequest asks for one fleet simulation. Zero-valued fields take
// server defaults, so requests that spell the same simulation
// differently normalize to the same cache key.
type FleetRequest struct {
	App string `json:"app"`
	// Chips is the fleet population (0 = 100k).
	Chips int `json:"chips,omitempty"`
	// Seed roots the per-chip random streams (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// TqualsK lists qualification temperatures; each becomes one policy
	// row (empty = [400]).
	TqualsK []float64 `json:"tquals_k,omitempty"`
	// FreqHz / Window / ALUs / FPUs override the configuration exactly
	// as in /v1/evaluate.
	FreqHz float64 `json:"freq_hz,omitempty"`
	Window int     `json:"window,omitempty"`
	ALUs   int     `json:"alus,omitempty"`
	FPUs   int     `json:"fpus,omitempty"`
	// Duty < 1 adds a checkpointing scenario at that duty cycle.
	Duty float64 `json:"duty,omitempty"`
	// Spares > 0 adds an in-field repair scenario with that many spares.
	Spares int `json:"spares,omitempty"`
	// HorizonYears bounds the survival curve (0 = 30).
	HorizonYears float64 `json:"horizon_years,omitempty"`
}

// FleetScenarioResult is one (T_qual policy, scenario) row.
type FleetScenarioResult struct {
	TqualK        float64   `json:"tqual_k"`
	Scenario      string    `json:"scenario"`
	MeanYears     float64   `json:"mean_years"`
	StdYears      float64   `json:"std_years"`
	ReturnRate7   float64   `json:"return_rate_7y"`
	ReturnRate11  float64   `json:"return_rate_11y"`
	SurvivalYears []float64 `json:"survival_years"`
	Survival      []float64 `json:"survival"`
}

// FleetResponse reports one fleet simulation. Field order is fixed;
// identical requests receive byte-identical bodies.
type FleetResponse struct {
	App          string                `json:"app"`
	Proc         string                `json:"proc"`
	Chips        int                   `json:"chips"`
	Seed         uint64                `json:"seed"`
	HorizonYears float64               `json:"horizon_years"`
	Results      []FleetScenarioResult `json:"results"`
}

// fleetCache is a bounded response cache keyed by the normalized
// request. Fleet runs are deterministic, so a hit is exact; the cache
// simply clears when full (runs are cheap enough that eviction finesse
// is not worth the state).
type fleetCache struct {
	mu sync.Mutex
	m  map[string]*FleetResponse
}

func (c *fleetCache) get(key string) (*FleetResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *fleetCache) put(key string, r *FleetResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= fleetCacheMax {
		c.m = make(map[string]*FleetResponse)
	}
	c.m[key] = r
}

// fleetJob is what a normalized fleet request resolves to: the
// evaluation at its first T_qual and the fleet cache key.
type fleetJob struct {
	app  trace.Profile
	proc config.Proc
	qual core.Qualification
	key  string
}

// normalizeFleet validates req in place, fills defaults, and resolves
// it to a fleetJob. Normalization is idempotent: normalizing an
// already-normalized request is the identity, so the key is stable
// (FuzzFleetRequest).
func (s *Server) normalizeFleet(req *FleetRequest) (fleetJob, error) {
	if req.Chips == 0 {
		req.Chips = fleetDefaultChips
	}
	if req.Chips < fleetMinChips || req.Chips > fleetMaxChips {
		return fleetJob{}, fmt.Errorf("chips %d outside [%d, %d]", req.Chips, fleetMinChips, fleetMaxChips)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if len(req.TqualsK) == 0 {
		req.TqualsK = []float64{400}
	}
	if len(req.TqualsK) > fleetMaxTquals {
		return fleetJob{}, fmt.Errorf("tquals_k lists %d temperatures (max %d)", len(req.TqualsK), fleetMaxTquals)
	}
	for _, tq := range req.TqualsK {
		if tq < 250 || tq > 500 {
			return fleetJob{}, fmt.Errorf("tquals_k %g outside the plausible qualification range [250, 500]", tq)
		}
	}
	if req.Duty == 0 {
		req.Duty = 1
	}
	if !(req.Duty > 0 && req.Duty <= 1) {
		return fleetJob{}, fmt.Errorf("duty %g outside (0, 1]", req.Duty)
	}
	if req.Spares < 0 || req.Spares > fleetMaxSpares {
		return fleetJob{}, fmt.Errorf("spares %d outside [0, %d]", req.Spares, fleetMaxSpares)
	}
	if req.HorizonYears == 0 {
		req.HorizonYears = 30
	}
	if req.HorizonYears < 1 || req.HorizonYears > 100 {
		return fleetJob{}, fmt.Errorf("horizon_years %g outside [1, 100]", req.HorizonYears)
	}

	// The configuration half rides through the same normalization as
	// /v1/evaluate (first T_qual stands in; each is range-checked above).
	ev := EvaluateRequest{
		App: req.App, FreqHz: req.FreqHz,
		Window: req.Window, ALUs: req.ALUs, FPUs: req.FPUs,
		TqualK: req.TqualsK[0],
	}
	app, proc, qual, err := s.normalizeEvaluate(&ev)
	if err != nil {
		return fleetJob{}, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "app=%s|proc=%s|chips=%d|seed=%d|duty=%g|spares=%d|horizon=%g|tq=",
		req.App, proc.Name, req.Chips, req.Seed, req.Duty, req.Spares, req.HorizonYears)
	for _, tq := range req.TqualsK {
		fmt.Fprintf(&sb, "%g,", tq)
	}
	return fleetJob{app, proc, qual, sb.String()}, nil
}

// fleetScenarios derives the scenario list: nominal always, plus
// checkpointing and/or repair variants when the request asks for them.
func fleetScenarios(req *FleetRequest) []fleet.Scenario {
	scs := []fleet.Scenario{fleet.NominalScenario()}
	if req.Duty < 1 {
		scs = append(scs, fleet.Scenario{Name: "checkpoint", Duty: req.Duty})
	}
	if req.Spares > 0 {
		scs = append(scs, fleet.Scenario{Name: "repair", Duty: 1, Spares: req.Spares})
	}
	if req.Duty < 1 && req.Spares > 0 {
		scs = append(scs, fleet.Scenario{Name: "checkpoint+repair", Duty: req.Duty, Spares: req.Spares})
	}
	return scs
}

// handleFleet serves POST /v1/fleet.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsFleet.Inc()
	var req FleetRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.normalizeFleet(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if resp, ok := s.fleet.get(job.key); ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	var resp *FleetResponse
	var jobErr error
	poolErr := s.pool.run(ctx, func() {
		start := time.Now()
		defer func() { s.ins.latFleet.Observe(time.Since(start).Microseconds()) }()

		// One simulation feeds every policy: the per-T_qual assessments
		// are requalifications of the same evaluated result.
		res, err := s.env.EvaluateCtx(ctx, job.app, job.proc, job.qual)
		if err != nil {
			jobErr = err
			return
		}
		var policies []fleet.Policy
		for _, tq := range req.TqualsK {
			a, err := s.env.Requalify(res, s.env.Qualification(tq))
			if err != nil {
				jobErr = err
				return
			}
			policies = append(policies, fleet.Policy{
				Name:       fmt.Sprintf("tq%gK", tq),
				Assessment: a,
			})
		}

		cfg := fleet.DefaultConfig(req.Chips, req.Seed)
		cfg.HorizonYears = req.HorizonYears
		cfg.Scenarios = fleetScenarios(&req)
		eng, err := fleet.New(cfg, policies)
		if err != nil {
			jobErr = err
			return
		}
		rep, err := eng.Run(ctx)
		if err != nil {
			jobErr = err
			return
		}

		resp = &FleetResponse{
			App: job.app.Name, Proc: job.proc.Name,
			Chips: req.Chips, Seed: req.Seed, HorizonYears: req.HorizonYears,
		}
		nscen := len(cfg.Scenarios)
		for i := range rep.Results {
			sr := &rep.Results[i]
			resp.Results = append(resp.Results, FleetScenarioResult{
				TqualK:        req.TqualsK[i/nscen],
				Scenario:      sr.Scenario,
				MeanYears:     sr.MeanYears,
				StdYears:      sr.StdYears,
				ReturnRate7:   sr.Return7,
				ReturnRate11:  sr.Return11,
				SurvivalYears: sr.SurvivalYears,
				Survival:      sr.Survival,
			})
		}
	})
	if err := s.jobError(poolErr, jobErr); err != nil {
		s.writeJobError(w, err)
		return
	}
	s.fleet.put(job.key, resp)
	writeJSON(w, http.StatusOK, resp)
}
