#!/usr/bin/env bash
# benchdiff.sh — diff two BENCH_*.json perf snapshots (see bench.sh):
# flag regressions in ns/op, B/op and allocs/op, and list every changed
# b.ReportMetric result (FITs, IPCs, relperf).
#
#   scripts/benchdiff.sh                        # BENCH_<n-1>.json vs BENCH_<n>.json
#   scripts/benchdiff.sh BENCH_ci.json          # highest BENCH_<n>.json vs BENCH_ci.json
#   scripts/benchdiff.sh OLD.json NEW.json      # explicit pair (old first)
#
# A benchmark regresses when a metric grows beyond its threshold:
#   ns/op      +15%  (timing is noisy; override with BENCHDIFF_NS_PCT)
#   B/op        +5%  (BENCHDIFF_B_PCT)
#   allocs/op   +1%  (allocation counts are deterministic; BENCHDIFF_ALLOCS_PCT)
# Every other metric a benchmark reports is a result of the model, not a
# cost, so any difference is listed as CHANGED — except rates (units
# containing "/s"), which measure speed. Exit status is 1 if any
# benchmark regressed or any result changed. Benchmarks and results
# present in only one snapshot are listed but never fail the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

highest() { # prints the BENCH_<n>.json with the largest n, skipping "$1"
	local best=-1 f i
	for f in BENCH_*.json; do
		[ -e "${f}" ] || continue
		[ "${f}" = "${1:-}" ] && continue
		i="${f#BENCH_}"
		i="${i%.json}"
		case "${i}" in *[!0-9]*) continue ;; esac
		if [ "${i}" -gt "${best}" ]; then best="${i}"; fi
	done
	[ "${best}" -ge 0 ] && echo "BENCH_${best}.json"
}

old="${1:-}"
new="${2:-}"
if [ -z "${old}" ]; then
	new="$(highest)" || true
	old="$(highest "${new}")" || true
elif [ -z "${new}" ]; then
	new="${old}"
	old="$(highest "${new}")" || true
fi
if [ -z "${old}" ] || [ -z "${new}" ] || [ ! -e "${old}" ] || [ ! -e "${new}" ]; then
	echo "benchdiff: need two snapshots to compare (old='${old:-}' new='${new:-}')" >&2
	exit 2
fi

echo "benchdiff: ${old} -> ${new}"
awk -v ns_pct="${BENCHDIFF_NS_PCT:-15}" -v b_pct="${BENCHDIFF_B_PCT:-5}" \
	-v allocs_pct="${BENCHDIFF_ALLOCS_PCT:-1}" '
	function metric(s, key,    pat) {
		pat = "\"" key "\":[0-9.eE+-]+"
		if (match(s, pat)) return substr(s, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
		return -1
	}
	function fmt(old, new,    pct) {
		if (old < 0 || new < 0) return "        -"
		if (old == 0) return new == 0 ? "       0%" : "     new>0"
		pct = (new - old) * 100 / old
		return sprintf("%+8.1f%%", pct)
	}
	function regressed(old, new, limit) {
		if (old <= 0 || new < 0) return 0
		return (new - old) * 100 / old > limit
	}
	# results stores every reported result of the line s (all metrics but
	# ns/op, B/op, allocs/op and rates) as res[name SUBSEP unit].
	function results(s, name, res,    body, parts, i, kv, unit) {
		if (!match(s, /"metrics":\{[^}]*\}/)) return
		body = substr(s, RSTART + 11, RLENGTH - 12)
		split(body, parts, ",")
		for (i in parts) {
			if (!match(parts[i], /^"[^"]*":/)) continue
			unit = substr(parts[i], 2, RLENGTH - 3)
			if (unit == "ns/op" || unit == "B/op" || unit == "allocs/op" || index(unit, "/s")) continue
			res[name, unit] = substr(parts[i], RLENGTH + 1)
		}
	}
	/"name":/ {
		if (!match($0, /"name":"[^"]*"/)) next
		name = substr($0, RSTART + 8, RLENGTH - 9)
		if (FNR == NR) {
			ons[name] = metric($0, "ns/op")
			ob[name] = metric($0, "B/op")
			oa[name] = metric($0, "allocs/op")
			results($0, name, ores)
			seen[name] = 1
			next
		}
		results($0, name, nres)
		order[n++] = name
		nns[name] = metric($0, "ns/op")
		nb[name] = metric($0, "B/op")
		na[name] = metric($0, "allocs/op")
	}
	END {
		printf "%-36s %9s %9s %9s\n", "benchmark", "ns/op", "B/op", "allocs/op"
		bad = 0
		for (i = 0; i < n; i++) {
			name = order[i]
			if (!(name in seen)) {
				printf "%-36s %9s %9s %9s  (new benchmark)\n", name, "-", "-", "-"
				continue
			}
			mark = ""
			if (regressed(ons[name], nns[name], ns_pct) ||
				regressed(ob[name], nb[name], b_pct) ||
				regressed(oa[name], na[name], allocs_pct)) {
				mark = "  REGRESSED"
				bad++
			}
			printf "%-36s %9s %9s %9s%s\n", name,
				fmt(ons[name], nns[name]), fmt(ob[name], nb[name]),
				fmt(oa[name], na[name]), mark
			delete seen[name]
		}
		for (name in seen) printf "%-36s (dropped from new snapshot)\n", name

		printf "\n%-36s %-24s %12s %12s\n", "result (b.ReportMetric)", "unit", "old", "new"
		changed = 0
		same = 0
		for (i = 0; i < n; i++) {
			name = order[i]
			for (key in nres) {
				split(key, k, SUBSEP)
				if (k[1] != name) continue
				if (!((name, k[2]) in ores)) {
					printf "%-36s %-24s %12s %12s  (new result)\n", name, k[2], "-", nres[key]
					continue
				}
				if (ores[key] + 0 != nres[key] + 0) {
					printf "%-36s %-24s %12s %12s  CHANGED\n", name, k[2], ores[key], nres[key]
					changed++
				} else {
					same++
				}
			}
			for (key in ores) {
				split(key, k, SUBSEP)
				if (k[1] == name && !(key in nres))
					printf "%-36s %-24s %12s %12s  (dropped result)\n", name, k[2], ores[key], "-"
			}
		}
		printf "%d result(s) equal, %d changed\n", same, changed
		if (bad) {
			printf "benchdiff: %d benchmark(s) regressed beyond thresholds (ns/op +%s%%, B/op +%s%%, allocs/op +%s%%)\n",
				bad, ns_pct, b_pct, allocs_pct
		}
		if (changed) printf "benchdiff: %d result(s) changed\n", changed
		if (bad || changed) exit 1
	}' "${old}" "${new}"
