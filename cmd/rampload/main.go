// Command rampload drives deterministic load against a running
// rampserve and gates the result on declarative SLOs — the closed loop
// that turns the serving layer's telemetry into a CI verdict.
//
// Examples:
//
//	rampload -url http://127.0.0.1:8080 -n 100000 -profile constant:5000
//	rampload -profile 'spike:2000,20000@5s+3s' -ndjson run.ndjson
//	rampload -plan -seed 7 -n 1000            # deterministic dry render
//	rampload -slo objectives.json -out LOAD_2.json
//	rampload -profile constant:1000000 -workers 4   # saturation probe
//
// Exit codes: 0 success, 1 usage or runtime error, 2 client/server
// count reconciliation mismatch, 3 SLO breach.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ramp/internal/load"
	"ramp/internal/obs"
	"ramp/internal/slo"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url     = flag.String("url", "http://127.0.0.1:8080", "rampserve base URL")
		n       = flag.Int("n", 10000, "total arrivals to schedule")
		profile = flag.String("profile", "constant:2000", "arrival profile: constant:R | poisson:R | step:R1,R2@T | spike:R1,R2@T+D")
		mixFlag = flag.String("mix", "evaluate=8,sweep=1,fleet=1", "route mix weights")
		seed    = flag.Int64("seed", 1, "schedule + sampler seed")
		workers = flag.Int("workers", 32, "senders and connections: the most requests outstanding at once")
		timeout = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		window  = flag.Duration("window", time.Second, "telemetry window length (<0 disables windows)")
		ndjson  = flag.String("ndjson", "", "write per-window NDJSON frames to this file (- for stdout)")
		out     = flag.String("out", "", "write the full run report (LOAD_<n>.json shape) to this file")
		sloPath = flag.String("slo", "", "gate on this JSON objectives file (exit 3 on breach)")
		sloDef  = flag.Bool("slo-default", false, "gate on the built-in objectives (p99≤2s, shed≤5%, errors≤1%)")
		plan    = flag.Bool("plan", false, "print the deterministic run plan and exit (no server needed)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rampload:", err)
		return 1
	}

	prof, err := load.ParseProfile(*profile)
	if err != nil {
		return fail(err)
	}
	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		return fail(err)
	}

	if *plan {
		if err := load.WritePlan(os.Stdout, *seed, *n, prof, mix); err != nil {
			return fail(err)
		}
		return 0
	}

	var objectives []slo.Objective
	if *sloPath != "" {
		data, err := os.ReadFile(*sloPath)
		if err != nil {
			return fail(err)
		}
		if objectives, err = slo.Parse(data); err != nil {
			return fail(err)
		}
	} else if *sloDef {
		objectives = load.DefaultObjectives()
	}

	rt, err := obsFlags.Setup()
	if err != nil {
		return fail(err)
	}
	defer rt.CloseOrLog()

	var ndjsonW io.Writer
	if *ndjson == "-" {
		ndjsonW = os.Stdout
	} else if *ndjson != "" {
		f, err := os.Create(*ndjson)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		ndjsonW = f
	}

	runner, err := load.New(load.Config{
		BaseURL:     *url,
		Seed:        *seed,
		Requests:    *n,
		Profile:     prof,
		Mix:         mix,
		Workers:     *workers,
		Timeout:     *timeout,
		WindowEvery: *window,
		NDJSON:      ndjsonW,
		Log:         rt.Log,
		Registry:    rt.Metrics,
	})
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	rep, err := runner.Run(ctx)
	if err != nil {
		return fail(err)
	}

	if len(objectives) > 0 {
		results, err := slo.Evaluate(objectives, runner.Snapshot(), runner.Deltas())
		if err != nil {
			return fail(err)
		}
		rep.SLO = results
	}

	rep.WriteSummary(os.Stdout)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	switch {
	case slo.Breached(rep.SLO):
		fmt.Fprintln(os.Stderr, "rampload: SLO breach")
		return 3
	case rep.Reconcile.Enabled && !rep.Reconcile.Pass:
		fmt.Fprintln(os.Stderr, "rampload: client/server count reconciliation mismatch")
		return 2
	}
	return 0
}
