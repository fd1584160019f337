// Deterministic arrival schedules and request sampling for the load
// harness. Everything here is a pure function of (seed, profile, mix):
// the same flags produce the same arrival offsets, the same route
// choices and the same request bodies on every run — which is what lets
// scripts/loadcheck.sh byte-compare two plan renders and lets a load
// run be replayed against a changed server.
//
// The PRNG is internal/splitmix, shared with internal/fleet (the repo's
// seeddet lint forbids time-seeded math/rand): independent salted
// substreams for arrivals and for body sampling, so adding a draw to
// one never perturbs the other.
package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ramp/internal/splitmix"
)

// Substream salts (arbitrary odd constants, distinct from fleet's).
const (
	saltArrivals uint64 = 0x10ad_a11a_1111_0001
	saltSampler  uint64 = 0x10ad_5a3b_1e55_0003
)

// newRNG derives one run's substream for a salt.
func newRNG(seed int64, salt uint64) splitmix.Stream {
	return splitmix.NewStream(splitmix.Mix64(uint64(seed)*splitmix.Golden ^ salt))
}

// Profile is an arrival-rate shape for the open-loop generator.
//
//	constant:R          R arrivals/s, evenly spaced
//	poisson:R           R arrivals/s, exponential gaps (seeded)
//	step:R1,R2@T        R1 until offset T, R2 afterwards
//	spike:R1,R2@T+D     R1 baseline with a R2 burst during [T, T+D)
type Profile struct {
	Kind string        // "constant", "poisson", "step" or "spike"
	RPS  float64       // base rate (arrivals per second)
	RPS2 float64       // step: post-switch rate; spike: burst rate
	At   time.Duration // step switch / spike start offset
	Dur  time.Duration // spike duration
}

// ParseProfile parses the -profile flag syntax documented on Profile.
func ParseProfile(s string) (Profile, error) {
	kind, rest, found := strings.Cut(s, ":")
	if !found {
		return Profile{}, fmt.Errorf("load: profile %q: want kind:args (e.g. constant:2000)", s)
	}
	p := Profile{Kind: kind}
	fail := func(msg string) (Profile, error) {
		return Profile{}, fmt.Errorf("load: profile %q: %s", s, msg)
	}
	parseRate := func(v string) (float64, error) {
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r <= 0 || math.IsInf(r, 0) || r > 10e6 {
			return 0, fmt.Errorf("bad rate %q (want 0 < r ≤ 10M/s)", v)
		}
		return r, nil
	}
	switch kind {
	case "constant", "poisson":
		r, err := parseRate(rest)
		if err != nil {
			return fail(err.Error())
		}
		p.RPS = r
	case "step", "spike":
		rates, when, found := strings.Cut(rest, "@")
		if !found {
			return fail("want R1,R2@T (step) or R1,R2@T+D (spike)")
		}
		r1s, r2s, found := strings.Cut(rates, ",")
		if !found {
			return fail("want two comma-separated rates")
		}
		var err error
		if p.RPS, err = parseRate(r1s); err != nil {
			return fail(err.Error())
		}
		if p.RPS2, err = parseRate(r2s); err != nil {
			return fail(err.Error())
		}
		if kind == "spike" {
			at, dur, found := strings.Cut(when, "+")
			if !found {
				return fail("spike wants T+D (start offset + duration)")
			}
			if p.At, err = time.ParseDuration(at); err != nil || p.At < 0 {
				return fail(fmt.Sprintf("bad offset %q", at))
			}
			if p.Dur, err = time.ParseDuration(dur); err != nil || p.Dur <= 0 {
				return fail(fmt.Sprintf("bad duration %q", dur))
			}
		} else {
			if p.At, err = time.ParseDuration(when); err != nil || p.At < 0 {
				return fail(fmt.Sprintf("bad offset %q", when))
			}
		}
	default:
		return fail("unknown kind (want constant, poisson, step or spike)")
	}
	return p, nil
}

// String renders the profile back in flag syntax (plans print it).
func (p Profile) String() string {
	switch p.Kind {
	case "step":
		return fmt.Sprintf("step:%g,%g@%s", p.RPS, p.RPS2, p.At)
	case "spike":
		return fmt.Sprintf("spike:%g,%g@%s+%s", p.RPS, p.RPS2, p.At, p.Dur)
	default:
		return fmt.Sprintf("%s:%g", p.Kind, p.RPS)
	}
}

// rate returns the instantaneous arrival rate at offset t.
func (p Profile) rate(t time.Duration) float64 {
	switch p.Kind {
	case "step":
		if t >= p.At {
			return p.RPS2
		}
	case "spike":
		if t >= p.At && t < p.At+p.Dur {
			return p.RPS2
		}
	}
	return p.RPS
}

// schedule iterates deterministic arrival offsets for a profile.
type schedule struct {
	p Profile
	r splitmix.Stream
	t time.Duration // offset of the previous arrival
}

func newSchedule(p Profile, seed int64) *schedule {
	return &schedule{p: p, r: newRNG(seed, saltArrivals)}
}

// next returns the next arrival offset. Deterministic profiles space
// arrivals exactly 1/rate apart at the instantaneous rate; poisson
// draws exponential gaps from the seeded stream.
func (s *schedule) next() time.Duration {
	rate := s.p.rate(s.t)
	gap := 1 / rate
	if s.p.Kind == "poisson" {
		gap = -math.Log(s.r.Uniform()) / rate
	}
	s.t += time.Duration(gap * float64(time.Second))
	return s.t
}

// Routes the harness drives, in mix order.
const (
	RouteEvaluate = "evaluate"
	RouteSweep    = "sweep"
	RouteFleet    = "fleet"
)

// Mix weights the three request routes. Zero-weight routes are never
// sampled.
type Mix struct {
	Evaluate float64
	Sweep    float64
	Fleet    float64
}

// ParseMix parses "evaluate=8,sweep=1,fleet=1" (omitted routes get 0).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return Mix{}, fmt.Errorf("load: mix %q: want route=weight pairs", s)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 || math.IsInf(w, 0) {
			return Mix{}, fmt.Errorf("load: mix %q: bad weight %q", s, val)
		}
		switch name {
		case RouteEvaluate:
			m.Evaluate = w
		case RouteSweep:
			m.Sweep = w
		case RouteFleet:
			m.Fleet = w
		default:
			return Mix{}, fmt.Errorf("load: mix %q: unknown route %q", s, name)
		}
	}
	if m.Evaluate+m.Sweep+m.Fleet <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q: total weight must be positive", s)
	}
	return m, nil
}

// String renders the mix back in flag syntax.
func (m Mix) String() string {
	parts := make([]string, 0, 3)
	if m.Evaluate > 0 {
		parts = append(parts, fmt.Sprintf("evaluate=%g", m.Evaluate))
	}
	if m.Sweep > 0 {
		parts = append(parts, fmt.Sprintf("sweep=%g", m.Sweep))
	}
	if m.Fleet > 0 {
		parts = append(parts, fmt.Sprintf("fleet=%g", m.Fleet))
	}
	return strings.Join(parts, ",")
}

// request is one sampled unit of work.
type request struct {
	route string
	app   string
	body  string
}

// The body grids. Every combination normalizes to a distinct exp cache
// key on the server, so a long run settles into a bounded working set
// (9 apps × 5 tquals × 3 operating points for evaluates) — the cache-
// warm steady state a resident reliability service actually serves.
var (
	tqualGrid = []float64{400, 385, 370, 355, 345}
	freqGrid  = []float64{0, 4.5e9, 3.5e9} // 0 keeps the base 4 GHz point
	fleetSeed = []int{1, 2, 3, 4}
)

// corpusApps is the nine-application suite the bodies draw from; the
// load package hard-codes the names (matching internal/trace.Apps) so
// it never imports the simulator — the harness must stay a pure HTTP
// client.
var corpusApps = []string{
	"MPGdec", "MP3dec", "H263enc",
	"bzip2", "gzip", "twolf",
	"art", "equake", "ammp",
}

// sampler draws (route, body) pairs from the seeded sampler stream.
type sampler struct {
	r   splitmix.Stream
	mix Mix
}

func newSampler(m Mix, seed int64) *sampler {
	return &sampler{r: newRNG(seed, saltSampler), mix: m}
}

// sample draws the next request. Draw order is fixed (route, app, then
// route-specific knobs) so the stream is stable under mix changes that
// keep a route's weight nonzero.
func (s *sampler) sample() request {
	total := s.mix.Evaluate + s.mix.Sweep + s.mix.Fleet
	u := s.r.Uniform() * total
	app := corpusApps[s.r.Intn(len(corpusApps))]
	switch {
	case u < s.mix.Evaluate:
		tq := tqualGrid[s.r.Intn(len(tqualGrid))]
		f := freqGrid[s.r.Intn(len(freqGrid))]
		body := fmt.Sprintf(`{"app":%q,"tqual_k":%g}`, app, tq)
		if f > 0 {
			body = fmt.Sprintf(`{"app":%q,"freq_hz":%g,"tqual_k":%g}`, app, f, tq)
		}
		return request{route: RouteEvaluate, app: app, body: body}
	case u < s.mix.Evaluate+s.mix.Sweep:
		tq := tqualGrid[s.r.Intn(len(tqualGrid))]
		return request{
			route: RouteSweep, app: app,
			body: fmt.Sprintf(`{"app":%q,"adaptation":"DVS","tquals_k":[400,%g]}`, app, tq),
		}
	default:
		seed := fleetSeed[s.r.Intn(len(fleetSeed))]
		return request{
			route: RouteFleet, app: app,
			body: fmt.Sprintf(`{"app":%q,"chips":2000,"seed":%d}`, app, seed),
		}
	}
}

// stream is a run's seeded arrivals: the schedule's offsets zipped with
// the sampler's requests, n of them. Run sends it and WritePlan hashes
// it, so a plan describes exactly what a run with the same flags sends.
type stream struct {
	sched *schedule
	smp   *sampler
	left  int
	app   string // the application the last arrival's body names
}

func newStream(seed int64, n int, p Profile, m Mix) *stream {
	return &stream{sched: newSchedule(p, seed), smp: newSampler(m, seed), left: n}
}

// Next implements Arrivals.
func (s *stream) Next() (Arrival, bool) {
	if s.left <= 0 {
		return Arrival{}, false
	}
	s.left--
	due, req := s.sched.next(), s.smp.sample()
	s.app = req.app
	return Arrival{Due: due, Route: req.route, Body: req.body}, true
}
