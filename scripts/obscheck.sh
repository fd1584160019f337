#!/usr/bin/env bash
# obscheck.sh — the observability CI lane.
#
# Proves the three obs pillars end to end on real binaries:
#
#   1. A quick evaluation run with -trace and -stats produces a span
#      trace that tracecheck validates against the Chrome trace_event
#      schema and attributes to its spans (-summary), and a stats
#      summary carrying the pipeline counters.
#   2. The same run with observability enabled prints byte-identical
#      results (instrumentation observes, never perturbs).
#   3. rampvet's obsguard analyzer holds: no internal package writes raw
#      diagnostics to stderr around the structured logger.
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
logdir=$(mktemp -d)
trap 'rm -rf "${bindir}" "${logdir}"' EXIT

step() { echo "==> $*"; }

step "build ramptables, tracecheck, rampvet"
go build -o "${bindir}/ramptables" ./cmd/ramptables
go build -o "${bindir}/tracecheck" ./cmd/tracecheck
go build -o "${bindir}/rampvet" ./cmd/rampvet

step "quick run with -trace and -stats"
"${bindir}/ramptables" -quick -table 2 \
	-trace "${logdir}/t.json" -stats \
	>"${logdir}/table2.obs.out" 2>"${logdir}/table2.obs.err"

step "trace validates against the Chrome trace_event schema"
"${bindir}/tracecheck" "${logdir}/t.json"

step "tracecheck -summary attributes the run to the simulator's spans"
"${bindir}/tracecheck" -summary "${logdir}/t.json" >"${logdir}/summary.out"
for span in sim.warmup sim.epoch exp.evaluate; do
	grep -q "^  ${span} " "${logdir}/summary.out" || {
		echo "FAIL: -summary missing span ${span}" >&2
		cat "${logdir}/summary.out" >&2
		exit 1
	}
done

step "stats summary carries the pipeline counters"
for metric in exp_epochs_simulated_total exp_evaluations_total \
	thermal_solves_total core_fit_compute_ns_em exp_fixedpoint_iters; do
	grep -q "${metric}" "${logdir}/table2.obs.err" || {
		echo "FAIL: -stats summary missing ${metric}" >&2
		cat "${logdir}/table2.obs.err" >&2
		exit 1
	}
done

step "observability changes no output byte"
"${bindir}/ramptables" -quick -table 2 >"${logdir}/table2.plain.out"
cmp "${logdir}/table2.obs.out" "${logdir}/table2.plain.out" || {
	echo "FAIL: instrumented run diverged from plain run" >&2
	exit 1
}

step "obsguard: internal packages use the structured logger"
"${bindir}/rampvet" -analyzers obsguard ./...

echo "obscheck: all good"
