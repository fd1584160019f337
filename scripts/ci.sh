#!/usr/bin/env bash
# ci.sh — the repo's single verification entry point.
#
# The test job of .github/workflows/ci.yml runs this script: formatting,
# vet, build, the full test suite (including the golden snapshot
# compare), the rampdebug invariant lane, the race lane (with -short so
# it stays fast), short fuzz bursts on the trace generator, the cache
# key, the variation sampler and the fleet request, the end-to-end smoke
# script, the load check, and the rampvet domain linter (default tags
# and rampdebug). Every lane runs even if an earlier one fails; the exit
# status is the number of failed lanes. The obscheck lane exercises the
# observability layer (-trace/-stats on a real run, trace validation,
# obsguard). The perfbench lane vets and tests the benchmark harness, a
# module of its own that `./...` does not reach. The cross-build lane
# builds for darwin and windows, which compile the non-Linux halves of
# build-constrained files (the load pacer's sleep).
set -u
cd "$(dirname "$0")/.."

failures=0

lane() {
	local name=$1
	shift
	echo "==> ${name}"
	if "$@"; then
		echo "    ok"
	else
		echo "    FAIL: ${name}" >&2
		failures=$((failures + 1))
	fi
}

check_gofmt() {
	local out
	out=$(gofmt -l .)
	if [ -n "${out}" ]; then
		echo "gofmt needs to be run on:" >&2
		echo "${out}" >&2
		return 1
	fi
}

# perfbench has its own go.mod (it points ramp at the parent
# directory), so the root module's vet and test lanes skip it.
perfbench_checks() {
	(cd perfbench && go vet . && go test .)
}

cross_build() {
	GOOS=darwin go build ./... && GOOS=windows go build ./...
}

lane "gofmt" check_gofmt
lane "go vet" go vet ./...
lane "go build" go build ./...
lane "cross-build" cross_build
lane "perfbench" perfbench_checks
lane "go test" go test ./...
lane "go test -tags rampdebug" go test -tags rampdebug ./...
lane "go test -race (short)" go test -race -short ./internal/...
# Short fuzz bursts: enough to catch shallow regressions on every push;
# run `-fuzztime 60s` (or longer) locally when touching these packages.
lane "fuzz trace" go test -fuzz FuzzTraceGenerator -fuzztime 5s -run '^$' ./internal/trace/
lane "fuzz cachekey" go test -fuzz FuzzCacheKey -fuzztime 5s -run '^$' ./internal/exp/
lane "fuzz variation" go test -fuzz FuzzVariationSampler -fuzztime 5s -run '^$' ./internal/fleet/
lane "fuzz fleetreq" go test -fuzz FuzzFleetRequest -fuzztime 5s -run '^$' ./internal/serve/
lane "smoke" ./scripts/smoke.sh
lane "obscheck" ./scripts/obscheck.sh
lane "loadcheck" ./scripts/loadcheck.sh
# The domain linter fails the lane on any finding; a deliberate
# exception carries `//rampvet:ignore <analyzer> -- reason` in the code.
lane "rampvet" go run ./cmd/rampvet ./...
# The rampdebug tree: internal/check's debug files, and whatever only
# the debug build reaches, are analyzed only under the tag.
lane "rampvet -tags rampdebug" go run ./cmd/rampvet -tags rampdebug ./...

if [ "${failures}" -ne 0 ]; then
	echo "${failures} lane(s) failed" >&2
fi
exit "${failures}"
