#!/usr/bin/env bash
# ab.sh — A/B-compare a base revision against HEAD on one perfbench
# workload, in alternating pairs.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seed]    # pairs 10, seed 1
#
# Both revisions are exported with git archive into a temporary
# directory (under $TMPDIR), and each runs through its own
# perfbench/run.sh with its own CARGO_TARGET_DIR: its first run builds,
# later runs find the build cached. Run length is BENCHMARK.json's
# run_seconds. Pair i runs the base first when i is odd and HEAD first
# when it is even.
#
# Prints every pair, each side's median and quartiles, and HEAD's wins
# out of the pairs (ties count for neither side) for every end-to-end
# metric in BENCHMARK.json. Exit status is 1 if any run reports
# failed > 0 or fails to run, or if the two sides print different
# digest lines; 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/ab.sh <base-rev> <workload> [pairs] [seed]" >&2
	exit 2
fi
base="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-1}"
case "${pairs}${seed}" in *[!0-9]*)
	echo "ab: pairs and seed must be non-negative integers" >&2
	exit 2
	;;
esac
if [ "${pairs}" -lt 1 ]; then
	echo "ab: pairs must be at least 1" >&2
	exit 2
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
# "name better" for every end-to-end metric, in BENCHMARK.json order.
metrics="$(awk '
	/"end_to_end"/ { in_e2e = 1; next }
	in_e2e && /^[ \t]*\]/ { in_e2e = 0 }
	in_e2e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	in_e2e && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' BENCHMARK.json)"

base_sha="$(git rev-parse --short "${base}^{commit}")"
head_sha="$(git rev-parse --short HEAD)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "${tmp}"' EXIT
for side in base head; do
	mkdir -p "${tmp}/${side}"
done
git archive "${base_sha}" | tar -x -C "${tmp}/base"
git archive "${head_sha}" | tar -x -C "${tmp}/head"

echo "ab: ${workload} seed ${seed}, ${pairs} pairs of ${seconds} s runs: base ${base} (${base_sha}) vs HEAD (${head_sha})"

status=0
# run_side <side> <pair>: one untraced run; keeps its report and the
# JSON result's end-to-end values, one "name value" per line.
run_side() {
	local side="$1" i="$2" dir="${tmp}/$1"
	local out="${tmp}/${side}.${i}.out"
	if ! (cd "${dir}" && CARGO_TARGET_DIR="${dir}/.bench_build" bash perfbench/run.sh \
		--workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace 0) \
		>"${out}" 2>"${tmp}/${side}.${i}.err"; then
		echo "ab: ${side} run ${i} failed to run:" >&2
		tail -5 "${tmp}/${side}.${i}.err" >&2
		status=1
		return
	fi
	local result failed
	result="$(tail -n 1 "${out}")"
	failed="$(echo "${result}" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
	if [ "${failed:-1}" != 0 ]; then
		echo "ab: ${side} run ${i} reports failed=${failed:-?}" >&2
		status=1
	fi
	grep '^digest ' "${out}" >>"${tmp}/${side}.digests" || true
	echo "${result}" | awk -v list="${metrics}" '
		BEGIN { n = split(list, f, /[ \n]/); for (k = 1; k <= n; k += 2) want[f[k]] = 1 }
		{
			s = $0
			while (match(s, /"[a-z0-9_.]+":\{"value":[-0-9.eE+]+/)) {
				m = substr(s, RSTART + 1, RLENGTH - 1)
				s = substr(s, RSTART + RLENGTH)
				name = m; sub(/".*/, "", name)
				v = m; sub(/.*"value":/, "", v)
				if (name in want) print name, v
			}
		}' >"${tmp}/${side}.${i}.vals"
}

# value <side> <pair> <metric>: one run's value, empty if it has none.
value() {
	awk -v m="$3" '$1 == m { print $2 }' "${tmp}/$1.$2.vals" 2>/dev/null || true
}

for i in $(seq 1 "${pairs}"); do
	if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
	for side in ${order}; do
		run_side "${side}" "${i}"
	done
	echo "pair ${i} (${order%% *} first): wall_s base $(value base "${i}" wall_s), HEAD $(value head "${i}" wall_s)"
done

# quartiles <file>: prints "q1 median q3" of the values in file
# (linear interpolation between order statistics).
quartiles() {
	sort -g "$1" | awk '
		{ x[NR] = $1 }
		function q(p,   h, lo) {
			h = 1 + (NR - 1) * p; lo = int(h)
			return lo >= NR ? x[NR] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
		}
		END { if (NR) printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

echo
printf '%-18s %-6s %-30s %-30s %8s %6s\n' metric better "base median (q1-q3)" "HEAD median (q1-q3)" change "wins"
while read -r name better; do
	: >"${tmp}/m.base"
	: >"${tmp}/m.head"
	line=""
	wins=0
	n=0
	for i in $(seq 1 "${pairs}"); do
		b="$(value base "${i}" "${name}")"
		h="$(value head "${i}" "${name}")"
		[ -n "${b}" ] && [ -n "${h}" ] || continue
		echo "${b}" >>"${tmp}/m.base"
		echo "${h}" >>"${tmp}/m.head"
		line="${line} $(printf '%.6g/%.6g' "${b}" "${h}")"
		n=$((n + 1))
		if awk -v b="${b}" -v h="${h}" -v better="${better}" \
			'BEGIN { exit !((better == "lower" && h < b) || (better == "higher" && h > b)) }'; then
			wins=$((wins + 1))
		fi
	done
	[ "${n}" -gt 0 ] || continue
	read -r bq1 bmed bq3 <<<"$(quartiles "${tmp}/m.base")"
	read -r hq1 hmed hq3 <<<"$(quartiles "${tmp}/m.head")"
	change="$(awk -v b="${bmed}" -v h="${hmed}" 'BEGIN { if (b != 0) printf "%+.1f%%", 100 * (h - b) / b; else print "n/a" }')"
	printf '%-18s %-6s %-30s %-30s %8s %6s\n' "${name}" "${better}" \
		"${bmed} (${bq1}-${bq3})" "${hmed} (${hq1}-${hq3})" "${change}" "${wins}/${n}"
	echo "  pairs (base/HEAD):${line}"
done <<<"${metrics}"

echo
for side in base head; do
	sort -u "${tmp}/${side}.digests" 2>/dev/null >"${tmp}/${side}.udigests" || : >"${tmp}/${side}.udigests"
done
if cmp -s "${tmp}/base.udigests" "${tmp}/head.udigests"; then
	sed 's/^/same on both sides: /' "${tmp}/head.udigests"
else
	echo "ab: digests differ" >&2
	diff "${tmp}/base.udigests" "${tmp}/head.udigests" | sed 's/^/  /' >&2 || true
	status=1
fi
exit "${status}"
