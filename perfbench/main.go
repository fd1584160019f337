// Command perfbench is the repository benchmark. It runs one seeded
// workload against the public packages of the reproduction (figures, drm,
// dtm, exp, sched, fleet and serve over loopback HTTP), times every call
// from its own files, checks the outputs, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload repro-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and the layer ledger. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run reports, with their
// units. Each workload gives every one a meaning (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"figures.table2_s", "s"},
	{"figures.figure1_s", "s"},
	{"figures.figure2_s", "s"},
	{"figures.figure3_s", "s"},
	{"figures.figure4_s", "s"},
	{"exp.evaluations", "count"},
	{"exp.cache_hit_ratio", "ratio"},
	{"exp.evaluate_ms_p50", "ms"},
	{"exp.fixedpoint_iters_mean", "count"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"thermal.solves", "count"},
	{"lane.total_s", "s"},
	{"lane.sim_s", "s"},
	{"lane.fixedpoint_s", "s"},
	{"lane.sinkpass_s", "s"},
	{"lane.ramp_s", "s"},
	{"lane.evaluate_self_s", "s"},
	{"core.fit_ns.em", "ns"},
	{"core.fit_ns.sm", "ns"},
	{"core.fit_ns.tddb", "ns"},
	{"core.fit_ns.tc", "ns"},
	{"drm.select_ms_p50", "ms"},
	{"drm.select_s", "s"},
	{"dtm.select_s", "s"},
	{"sched.new_s", "s"},
	{"sched.run_ms.static", "ms"},
	{"sched.run_ms.coolest", "ms"},
	{"sched.run_ms.wearlevel", "ms"},
	{"fleet.policies_s", "s"},
	{"fleet.compile_ms", "ms"},
	{"fleet.run_s", "s"},
	{"fleet.mchips_per_s", "Mchips/s"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.compute_us_p50.evaluate", "us"},
	{"serve.compute_us_p50.sweep", "us"},
	{"serve.compute_us_p50.fleet", "us"},
	{"serve.client_us_p50.evaluate", "us"},
	{"serve.client_us_p50.sweep", "us"},
	{"serve.client_us_p50.fleet", "us"},
	{"serve.overhead_us_p50.evaluate", "us"},
	{"serve.overhead_us_p50.sweep", "us"},
	{"serve.overhead_us_p50.fleet", "us"},
	{"serve.client_s.evaluate", "s"},
	{"serve.client_s.sweep", "s"},
	{"serve.client_s.fleet", "s"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"load.late_us_p99", "us"},
	{"op.p99_ms", "ms"},
	{"ledger.unattributed_s", "s"},
	{"ledger.parts_s", "s"},
	{"ledger.wall_s", "s"},
	{"ledger.error_s", "s"},
	{"trace.overhead_s", "s"},
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"repro-cold":    reproCold,
	"analysis-warm": analysisWarm,
	"serve-open":    serveOpen,
}

// goldenSeed is the seed whose fleet streams results/golden/fleet_quick.txt
// pins (the simulated inputs are the golden ones on every seed).
const goldenSeed = 1

// setupRepeats is how many times a workload sets up to report a median
// set-up time.
const setupRepeats = 3

// run is the state one workload run shares across its phases.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     io.Writer // human-readable report lines (standard output)

	attempted, failed int64
	metrics           map[string]metric
}

// set records one metric.
func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one correctness check, reporting it when it fails.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.out, "FAIL "+format+"\n", args...)
	}
}

// op counts one timed operation and its outcome.
func (r *run) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.out, "FAIL %s: %v\n", what, err)
	}
}

// another reports whether a further timed pass fits in the run. One
// pass always runs (two when traced: one untraced, one traced), and
// another starts only if, taking as long as the mean pass so far, it
// ends within --seconds.
func (r *run) another(start time.Time, passes int) bool {
	if passes == 0 || (r.traced && passes == 1) {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(passes) <= r.seconds
}

// logf prints one report line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: repro-cold, analysis-warm or serve-open")
	seed := fs.Int64("seed", goldenSeed, "input seed")
	seconds := fs.Int("seconds", 25, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics and ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	// The load is sized for a 2-core host; pinning GOMAXPROCS keeps the
	// worker pools (exp, fleet, serve) the same size on any machine.
	runtime.GOMAXPROCS(2)

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		out:     stdout,
		metrics: make(map[string]metric),
	}
	r.logf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d", *name, r.seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result assembles the JSON result: exactly the metric set of the run's
// mode, with layers a workload does not exercise reading 0.
func (r *run) result() (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if r.attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	if r.traced {
		for _, m := range perLayer {
			v := r.metrics[m.name]
			res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := r.metrics[m.name]
		if !ok || v.Unit != m.unit {
			return res, fmt.Errorf("end-to-end metric %s (%s) not measured", m.name, m.unit)
		}
		res.Metrics[m.name] = v
	}
	return res, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func now() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the wall and CPU time elapsed since u.
func (u usage) since() (wall, cpu time.Duration) {
	n := now()
	return n.wall.Sub(u.wall), n.cpu - u.cpu
}

// peakRSSMiB returns the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
