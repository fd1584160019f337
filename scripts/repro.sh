#!/usr/bin/env bash
# repro.sh — regenerate every paper artifact at default options, check
# each against its results/ file, and record the first clock.
#
#   scripts/repro.sh        # auto-numbered: one past the highest REPRO_<n>.json
#   scripts/repro.sh 3      # explicit index -> REPRO_3.json
#
# Builds the five commands README lists and runs them one after another
# at default options, each with -trace:
#
#   ramptables             results/tables.txt   Tables 1-2, Figure 1
#   drmexplore -figure 2   results/figure2.txt  Figure 2
#   drmexplore -figure 3   results/figure3.txt  Figure 3
#   drmdtm                 results/figure4.txt  Figure 4
#   scaling                results/scaling.txt  the section 1.2 scaling study
#
# Each command's stdout is byte-compared with its file. Per command it
# prints wall seconds, user+sys CPU seconds (the shell's `times` for
# its children), peak RSS (VmHWM from /proc/<pid>/status, sampled every
# 0.1 s while the command runs, so it can miss a peak in its last
# 0.1 s) and the `tracecheck -summary` ledger of its trace. sim_s in
# the JSON is the ledger's sim.warmup plus sim.epoch self time, summed
# over workers. The whole run takes about 6 minutes on 2 vCPUs, most of
# it Figure 2.
#
# Writes REPRO_<n>.json at the repo root. Exit status 1 if any output
# differs or any command fails.
set -euo pipefail
cd "$(dirname "$0")/.."

index="${1:-}"
if [ -z "${index}" ]; then
	index=1
	for f in REPRO_*.json; do
		[ -e "${f}" ] || continue
		i="${f#REPRO_}"
		i="${i%.json}"
		case "${i}" in *[!0-9]*) continue ;; esac
		if [ "${i}" -ge "${index}" ]; then index=$((i + 1)); fi
	done
fi
out="REPRO_${index}.json"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/repro.XXXXXX")"
trap 'rm -rf "${tmp}"' EXIT
go build -o "${tmp}/bin/" ./cmd/ramptables ./cmd/drmexplore ./cmd/drmdtm ./cmd/scaling ./cmd/tracecheck

# A read on this descriptor never gets data, so `read -t` on it is a
# sleep that forks nothing: the `times` totals below then count the
# measured command alone.
exec {nap}<> <(:)

# children_cpu <file>: user+sys seconds of waited-for children, from a
# saved `times` output (its second line).
children_cpu() {
	awk 'NR == 2 { s = 0; for (i = 1; i <= 2; i++) { split($i, p, "m"); sub(/s$/, "", p[2]); s += p[1] * 60 + p[2] } printf "%.3f", s }' "$1"
}

names=(ramptables figure2 figure3 drmdtm scaling)
cmds=("ramptables" "drmexplore -figure 2" "drmexplore -figure 3" "drmdtm" "scaling")
files=(tables.txt figure2.txt figure3.txt figure4.txt scaling.txt)

status=0
rows=()
total_wall=0
total_cpu=0
for k in "${!names[@]}"; do
	name="${names[k]}"
	read -r -a argv <<<"${cmds[k]}"
	stdout="${tmp}/${name}.out"
	trace="${tmp}/${name}.json"

	times >"${tmp}/times.before"
	t0="${EPOCHREALTIME}"
	"${tmp}/bin/${argv[0]}" "${argv[@]:1}" -trace "${trace}" >"${stdout}" 2>"${tmp}/${name}.err" &
	pid=$!
	hwm=0
	while :; do
		state=
		while IFS=$' \t:' read -r key val _; do
			case "${key}" in
			State) state="${val}" ;;
			VmHWM) hwm="${val}" ;;
			esac
		done 2>/dev/null <"/proc/${pid}/status" || break
		if [ "${state}" = Z ]; then break; fi
		read -r -t 0.1 -u "${nap}" _ || true
	done
	rc=0
	wait "${pid}" || rc=$?
	t1="${EPOCHREALTIME}"
	times >"${tmp}/times.after"

	wall="$(awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%.3f", b - a }')"
	cpu="$(awk -v a="$(children_cpu "${tmp}/times.before")" -v b="$(children_cpu "${tmp}/times.after")" 'BEGIN { printf "%.3f", b - a }')"
	rss="$(awk -v k="${hwm}" 'BEGIN { printf "%.1f", k / 1024 }')"
	match=true
	if [ "${rc}" != 0 ]; then
		echo "repro: ${cmds[k]} exited ${rc}:" >&2
		tail -5 "${tmp}/${name}.err" >&2
		match=false
		status=1
	elif ! cmp -s "${stdout}" "results/${files[k]}"; then
		echo "repro: ${cmds[k]} differs from results/${files[k]}:" >&2
		diff "results/${files[k]}" "${stdout}" | head -20 >&2 || true
		match=false
		status=1
	fi

	echo "== ${cmds[k]}: wall ${wall} s, cpu ${cpu} s, peak rss ${rss} MiB, results/${files[k]} $([ "${match}" = true ] && echo matches || echo DIFFERS)"
	"${tmp}/bin/tracecheck" -summary "${trace}" | tee "${tmp}/${name}.ledger"
	sim="$(awk '$1 == "sim.warmup" || $1 == "sim.epoch" { s += $3 } END { printf "%.3f", s }' "${tmp}/${name}.ledger")"

	rows+=("$(printf '    {"name":"%s","command":"%s","artifact":"results/%s","match":%s,"wall_s":%s,"cpu_s":%s,"sim_s":%s,"peak_rss_mb":%s}' \
		"${name}" "${cmds[k]}" "${files[k]}" "${match}" "${wall}" "${cpu}" "${sim}" "${rss}")")
	total_wall="$(awk -v a="${total_wall}" -v b="${wall}" 'BEGIN { printf "%.3f", a + b }')"
	total_cpu="$(awk -v a="${total_cpu}" -v b="${cpu}" 'BEGIN { printf "%.3f", a + b }')"
done
echo "== all five: wall ${total_wall} s, cpu ${total_cpu} s"

{
	printf '{\n'
	printf '  "schema": 1,\n'
	printf '  "index": "%s",\n' "${index}"
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
	printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	printf '  "cpu": "%s",\n' "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || echo unknown)"
	printf '  "nproc": %s,\n' "$(nproc 2>/dev/null || echo 0)"
	printf '  "ok": %s,\n' "$([ "${status}" = 0 ] && echo true || echo false)"
	printf '  "total": {"wall_s":%s,"cpu_s":%s},\n' "${total_wall}" "${total_cpu}"
	printf '  "commands": [\n'
	for i in "${!rows[@]}"; do
		printf '%s%s\n' "${rows[i]}" "$([ $((i + 1)) -lt ${#rows[@]} ] && echo , || true)"
	done
	printf '  ]\n'
	printf '}\n'
} >"${out}"
echo "wrote ${out}"
exit "${status}"
