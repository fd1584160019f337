package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/drm"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

// maxBodyBytes bounds request bodies; every valid request is a few
// hundred bytes of JSON.
const maxBodyBytes = 1 << 16

// EvaluateRequest asks for one (application, configuration,
// qualification) evaluation. Zero-valued fields mean "base machine":
// requests that describe the same configuration through different
// spellings (explicit base values vs. omitted fields) normalize to the
// same processor and therefore the same exp cache key, so they share
// one simulation.
type EvaluateRequest struct {
	App string `json:"app"`
	// FreqHz moves the operating point on the DVS curve (voltage
	// follows); 0 keeps the base 4 GHz point.
	FreqHz float64 `json:"freq_hz,omitempty"`
	// Window/ALUs/FPUs override the microarchitecture; 0 keeps base.
	Window int `json:"window,omitempty"`
	ALUs   int `json:"alus,omitempty"`
	FPUs   int `json:"fpus,omitempty"`
	// TqualK is the qualification temperature; 0 means 400 K.
	TqualK float64 `json:"tqual_k,omitempty"`
}

// EvaluateResponse reports one evaluation. Field order is fixed, so two
// identical requests receive byte-identical bodies.
type EvaluateResponse struct {
	App    string  `json:"app"`
	Proc   string  `json:"proc"`
	FreqHz float64 `json:"freq_hz"`
	VddV   float64 `json:"vdd_v"`
	TqualK float64 `json:"tqual_k"`

	IPC      float64 `json:"ipc"`
	BIPS     float64 `json:"bips"`
	AvgW     float64 `json:"avg_w"`
	MaxTempK float64 `json:"max_temp_k"`
	AvgTempK float64 `json:"avg_temp_k"`
	SinkK    float64 `json:"sink_k"`

	FIT         float64 `json:"fit"`
	TargetFIT   float64 `json:"target_fit"`
	MTTFYears   float64 `json:"mttf_years"`
	MeetsTarget bool    `json:"meets_target"`
}

// SweepRequest asks for a DRM adaptation-space sweep: evaluate every
// candidate once, then select the best configuration meeting the FIT
// target at each requested qualification temperature.
type SweepRequest struct {
	App        string    `json:"app"`
	Adaptation string    `json:"adaptation"` // "Arch", "DVS" or "ArchDVS"
	TqualsK    []float64 `json:"tquals_k"`
	// FreqStepHz sets the DVS grid (0 = the server's default).
	FreqStepHz float64 `json:"freq_step_hz,omitempty"`
}

// SweepChoice is the DRM oracle's decision at one qualification point.
type SweepChoice struct {
	TqualK   float64 `json:"tqual_k"`
	Proc     string  `json:"proc"`
	FreqHz   float64 `json:"freq_hz"`
	RelPerf  float64 `json:"rel_perf"`
	FIT      float64 `json:"fit"`
	Feasible bool    `json:"feasible"`
}

// SweepResponse reports a sweep: the base machine's absolutes plus one
// choice per requested qualification temperature, in request order.
type SweepResponse struct {
	App        string        `json:"app"`
	Adaptation string        `json:"adaptation"`
	Candidates int           `json:"candidates"`
	BaseBIPS   float64       `json:"base_bips"`
	BaseFIT    float64       `json:"base_fit"`
	Choices    []SweepChoice `json:"choices"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a failed write means the client is gone
}

// writeError emits the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeRequest strictly decodes a JSON body into v: unknown fields,
// trailing garbage and oversized bodies are all 400s, so a typo'd field
// name can never silently fall back to the base value.
func decodeRequest(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %v", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data after request object")
	}
	return nil
}

// normalizeEvaluate validates an EvaluateRequest and resolves it to the
// concrete (app, proc, qual) triple that feeds the exp cache key.
func (s *Server) normalizeEvaluate(req *EvaluateRequest) (trace.Profile, config.Proc, core.Qualification, error) {
	app, err := trace.AppByName(req.App)
	if err != nil {
		return trace.Profile{}, config.Proc{}, core.Qualification{}, err
	}
	proc := s.env.Base
	if req.Window != 0 {
		proc.WindowSize = req.Window
		proc.IntRegs = min(s.env.Base.IntRegs, req.Window+req.Window/2)
		proc.FPRegs = min(s.env.Base.FPRegs, req.Window+req.Window/2)
		proc.MemQueueSize = min(s.env.Base.MemQueueSize, req.Window)
	}
	if req.ALUs != 0 {
		proc.IntALUs = req.ALUs
	}
	if req.FPUs != 0 {
		proc.FPUs = req.FPUs
	}
	if req.FreqHz != 0 {
		if req.FreqHz < config.MinFreqHz || req.FreqHz > config.MaxFreqHz {
			return trace.Profile{}, config.Proc{}, core.Qualification{},
				fmt.Errorf("freq_hz %g outside the DVS window [%g, %g]", req.FreqHz, float64(config.MinFreqHz), float64(config.MaxFreqHz))
		}
		proc = proc.WithOperatingPoint(req.FreqHz)
	}
	proc.Name = fmt.Sprintf("w%d-a%d-f%d@%.3fGHz", proc.WindowSize, proc.IntALUs, proc.FPUs, proc.FreqHz/1e9)
	if err := proc.Validate(); err != nil {
		return trace.Profile{}, config.Proc{}, core.Qualification{}, err
	}
	tqual := req.TqualK
	if tqual == 0 {
		tqual = 400
	}
	qual := s.env.Qualification(tqual)
	if err := qual.Validate(); err != nil {
		return trace.Profile{}, config.Proc{}, core.Qualification{}, err
	}
	if tqual < 250 || tqual > 500 {
		return trace.Profile{}, config.Proc{}, core.Qualification{},
			fmt.Errorf("tqual_k %g outside the plausible qualification range [250, 500]", tqual)
	}
	return app, proc, qual, nil
}

// handleEvaluate serves POST /v1/evaluate.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsEvaluate.Inc()
	var req EvaluateRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	app, proc, qual, err := s.normalizeEvaluate(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	var res exp.Result
	var evalErr error
	poolErr := s.pool.run(ctx, func() {
		start := time.Now()
		res, evalErr = s.env.EvaluateCtx(ctx, app, proc, qual)
		s.ins.latEvaluate.Observe(time.Since(start).Microseconds())
	})
	if err := s.jobError(poolErr, evalErr); err != nil {
		s.writeJobError(w, err)
		return
	}

	a := res.Assessment
	writeJSON(w, http.StatusOK, EvaluateResponse{
		App: app.Name, Proc: proc.Name,
		FreqHz: proc.FreqHz, VddV: proc.VddV, TqualK: qual.TqualK,
		IPC: res.IPC, BIPS: res.BIPS, AvgW: res.AvgW,
		MaxTempK: res.MaxTempK, AvgTempK: res.AvgTempK, SinkK: res.SinkK,
		FIT: a.TotalFIT, TargetFIT: qual.TargetFIT, MTTFYears: a.MTTFYears,
		MeetsTarget: a.TotalFIT <= qual.TargetFIT,
	})
}

// handleSweep serves POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsSweep.Inc()
	var req SweepRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	app, err := trace.AppByName(req.App)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	adaptation, err := drm.AdaptationByName(req.Adaptation)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.TqualsK) == 0 {
		writeError(w, http.StatusBadRequest, "tquals_k must list at least one qualification temperature")
		return
	}
	if len(req.TqualsK) > 64 {
		writeError(w, http.StatusBadRequest, "tquals_k lists %d temperatures (max 64)", len(req.TqualsK))
		return
	}
	for _, tq := range req.TqualsK {
		if tq < 250 || tq > 500 {
			writeError(w, http.StatusBadRequest, "tquals_k %g outside the plausible qualification range [250, 500]", tq)
			return
		}
	}
	if req.FreqStepHz < 0 || (req.FreqStepHz > 0 && req.FreqStepHz < 0.02e9) {
		writeError(w, http.StatusBadRequest, "freq_step_hz %g too fine (min 0.02 GHz)", req.FreqStepHz)
		return
	}

	oracle := drm.NewOracle(s.env)
	if req.FreqStepHz > 0 {
		oracle.FreqStepHz = req.FreqStepHz
	} else if s.cfg.FreqStepHz > 0 {
		oracle.FreqStepHz = s.cfg.FreqStepHz
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	var resp SweepResponse
	var sweepErr error
	poolErr := s.pool.run(ctx, func() {
		start := time.Now()
		defer func() { s.ins.latSweep.Observe(time.Since(start).Microseconds()) }()
		var sweep *drm.Sweep
		sweep, sweepErr = oracle.SweepCtx(ctx, app, adaptation)
		if sweepErr != nil {
			return
		}
		resp = SweepResponse{
			App: app.Name, Adaptation: adaptation.String(),
			Candidates: len(sweep.Candidates),
			BaseBIPS:   sweep.Base.BIPS,
			BaseFIT:    sweep.Base.FIT(),
		}
		for _, tq := range req.TqualsK {
			var choice drm.Choice
			choice, sweepErr = sweep.SelectCtx(ctx, s.env, s.env.Qualification(tq))
			if sweepErr != nil {
				return
			}
			resp.Choices = append(resp.Choices, SweepChoice{
				TqualK: tq, Proc: choice.Proc.Name, FreqHz: choice.Proc.FreqHz,
				RelPerf: choice.RelPerf, FIT: choice.FIT, Feasible: choice.Feasible,
			})
		}
	})
	if err := s.jobError(poolErr, sweepErr); err != nil {
		s.writeJobError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsHealthz.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"uptime_sec":         time.Since(s.start).Seconds(),
		"cached_evaluations": s.env.CachedEvaluations(),
	})
}

// requestContext derives the job context: the client's own context
// (cancelled when the connection drops) bounded by the server's
// per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// jobError folds the pool's admission error and the job's own error
// into the one the response should reflect.
func (s *Server) jobError(poolErr, jobErr error) error {
	if poolErr != nil {
		return poolErr
	}
	return jobErr
}

// writeJobError maps a job failure to a status code: queue-full → 429,
// deadline → 504, client-gone → 499 (best effort; the write is likely
// lost), anything else → 500.
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server saturated: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.ins.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "evaluation exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx convention. The body almost
		// certainly cannot be delivered, but account the response.
		writeError(w, 499, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
