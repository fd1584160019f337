#!/usr/bin/env bash
# loadcheck.sh — smoke lane for the rampload harness and the SLO gate.
#
# Four checks, all fast by construction:
#   1. plan determinism: the same seed must render a byte-identical plan
#      (the plan embeds an FNV-1a stream hash, so one flipped arrival or
#      body would show up here);
#   2. a short deterministic burst against a quick-mode rampserve with
#      the built-in (generous) objectives must exit 0, reconcile client
#      counts against the server's /metrics, report lateness and gate
#      on as many windows as it streamed frames;
#   3. an impossible objectives file against the same server must make
#      rampload exit exactly 3 — the CI-visible SLO-breach code;
#   4. the metrics stream: one curl'd NDJSON frame with a request_id,
#      proving the windowed telemetry endpoint serves during load.
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
logdir=$(mktemp -d)
server_pid=""
cleanup() {
	if [ -n "${server_pid}" ] && kill -0 "${server_pid}" 2>/dev/null; then
		kill -KILL "${server_pid}" 2>/dev/null || true
	fi
	rm -rf "${bindir}" "${logdir}"
}
trap cleanup EXIT

step() { echo "==> $*"; }

step "build rampload + rampserve"
go build -o "${bindir}/rampload" ./cmd/rampload
go build -o "${bindir}/rampserve" ./cmd/rampserve

step "plan: fixed seed renders byte-identically"
"${bindir}/rampload" -plan -seed 7 -n 5000 -profile 'spike:2000,20000@1s+500ms' \
	>"${logdir}/plan.a"
"${bindir}/rampload" -plan -seed 7 -n 5000 -profile 'spike:2000,20000@1s+500ms' \
	>"${logdir}/plan.b"
cmp "${logdir}/plan.a" "${logdir}/plan.b"
grep -q 'stream fnv64a' "${logdir}/plan.a"
# A different seed must move the stream hash.
"${bindir}/rampload" -plan -seed 8 -n 5000 -profile 'spike:2000,20000@1s+500ms' \
	>"${logdir}/plan.c"
if cmp -s "${logdir}/plan.a" "${logdir}/plan.c"; then
	echo "FAIL: seeds 7 and 8 rendered identical plans" >&2
	exit 1
fi

step "rampserve: start quick-mode server"
"${bindir}/rampserve" -addr 127.0.0.1:0 -quick >"${logdir}/rampserve.out" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^rampserve: listening on \([^ ]*\).*/\1/p' "${logdir}/rampserve.out")
	[ -n "${addr}" ] && break
	kill -0 "${server_pid}" 2>/dev/null || {
		echo "FAIL: rampserve died on startup" >&2
		cat "${logdir}/rampserve.out" >&2
		exit 1
	}
	sleep 0.1
done
[ -n "${addr}" ] || { echo "FAIL: rampserve never reported its address" >&2; exit 1; }

step "warm: saturating pass over the burst's exact request stream"
# The sampler is seed-deterministic, so a run with the same seed and
# count touches exactly the cache keys the gated burst will hit; at a
# rate far above the server's, its two senders go back to back.
# Warming first makes the burst measure the cache-warm steady state a
# resident service actually serves — and keeps this lane honest on
# one-core CI runners, where a cold sweep costs seconds.
"${bindir}/rampload" -url "http://${addr}" -seed 11 -n 600 \
	-profile constant:1000000 -workers 2 -window -1ms >"${logdir}/warm.out" 2>&1 || {
	echo "FAIL: warmup run exited non-zero" >&2
	cat "${logdir}/warm.out" >&2
	exit 1
}

step "burst: deterministic open-loop run passes the default SLO gate"
# Modest rate on purpose: this lane verifies the gate machinery
# (windows, reconciliation, exit codes), not peak throughput.
"${bindir}/rampload" -url "http://${addr}" -seed 11 -n 600 \
	-profile constant:150 -window 250ms -slo-default \
	-ndjson "${logdir}/frames.ndjson" -out "${logdir}/load.json" \
	>"${logdir}/burst.out" 2>"${logdir}/burst.err" || {
	echo "FAIL: burst run exited non-zero" >&2
	cat "${logdir}/burst.out" "${logdir}/burst.err" >&2
	exit 1
}
grep -q '"achieved_rps"' "${logdir}/load.json"
grep -q '"pass": true' "${logdir}/load.json"
# Every send's lateness is reported, and no arrival is ever dropped.
grep -q '"late": {' "${logdir}/load.json"
if grep -q '"dropped"' "${logdir}/load.json"; then
	echo "FAIL: the report still carries a dropped count" >&2
	exit 1
fi
# Windows streamed: at least one NDJSON frame with a latency estimate.
grep -q '"p50_us"' "${logdir}/frames.ndjson"
# The SLO gate judged the windows the frames report: each objective's
# window count equals the number of NDJSON frames.
frames=$(wc -l <"${logdir}/frames.ndjson")
counts=$(grep -o '"windows": [0-9][0-9]*' "${logdir}/load.json" | sed 's/.* //')
[ -n "${counts}" ] || { echo "FAIL: load.json carries no SLO window counts" >&2; exit 1; }
for n in ${counts}; do
	if [ "${n}" -ne "${frames}" ]; then
		echo "FAIL: an SLO objective saw ${n} windows, frames.ndjson has ${frames}" >&2
		exit 1
	fi
done

step "gate: impossible objectives make rampload exit 3"
cat >"${logdir}/impossible.json" <<'EOF'
[
  {"name": "impossible-p50", "hist": "load_latency_us", "p": 0.5, "max_us": 0.001}
]
EOF
status=0
"${bindir}/rampload" -url "http://${addr}" -seed 11 -n 200 \
	-profile constant:100 -slo "${logdir}/impossible.json" \
	>"${logdir}/breach.out" 2>"${logdir}/breach.err" || status=$?
if [ "${status}" -ne 3 ]; then
	echo "FAIL: impossible SLO exited ${status}, want 3" >&2
	cat "${logdir}/breach.out" "${logdir}/breach.err" >&2
	exit 1
fi
grep -q 'BREACH' "${logdir}/breach.out"

step "stream: one windowed NDJSON frame over HTTP"
curl -sSf "http://${addr}/v1/metrics/stream?window=100ms&n=1&format=ndjson" \
	>"${logdir}/frame.json"
grep -q '"request_id"' "${logdir}/frame.json"
grep -q '"window_sec"' "${logdir}/frame.json"

kill -TERM "${server_pid}"
status=0
wait "${server_pid}" || status=$?
server_pid=""
if [ "${status}" -ne 0 ]; then
	echo "FAIL: rampserve exited ${status} after SIGTERM" >&2
	cat "${logdir}/rampserve.out" >&2
	exit 1
fi

echo "loadcheck: all good"
