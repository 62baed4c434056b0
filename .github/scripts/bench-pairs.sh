#!/usr/bin/env bash
# bench-pairs.sh BASE_REF [PAIRS]
#
# Gates time the only way a shared host allows (benchmark/README.md,
# "Steadiness"): same machine, same minutes, alternating. Builds benchmark/
# at BASE_REF and at the working tree, runs PAIRS (default 3) pairs of all
# five workloads at -trace 0 -seconds 5, alternating which side goes first,
# and hands each pair to `benchmark compare`. Exits 1 when the same
# (workload, metric) row reads "regressed" in every pair — one pair's
# verdict is the host's weather — and never on "unresolved". The compare
# tables go to standard output; nothing is left on disk.
set -euo pipefail

base=${1:?usage: bench-pairs.sh BASE_REF [PAIRS]}
pairs=${2:-3}
((pairs >= 1)) || { echo "bench-pairs: PAIRS must be at least 1" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The base is an export of the commit, not a worktree: benchmark/go.mod
# replaces mmconf with ../, so the whole tree is needed, and an export
# registers nothing in .git that a killed run would leave behind.
mkdir "$work/base" "$work/out"
git -C "$root" archive "$base" | tar -x -C "$work/base"
go -C "$work/base/benchmark" build -o "$work/bm-base" .
go -C "$root/benchmark" build -o "$work/bm-head" .

# run SIDE SEED: one side's five workloads, from a directory of its own
# (the benchmark keeps its stores under ./.tmp).
run() {
	mkdir -p "$work/cwd-$1"
	(cd "$work/cwd-$1" && "$work/bm-$1" -trace 0 -seconds 5 -seed "$2" -out "$work/out/$1-$2.json") \
		>"$work/out/$1-$2.log" 2>&1 || {
		cat "$work/out/$1-$2.log"
		echo "bench-pairs: the $1 side's run failed" >&2
		exit 1
	}
}

for i in $(seq "$pairs"); do
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do run "$side" "$i"; done
	echo "== pair $i of $pairs: $base -> working tree, seed $i"
	rc=0
	"$work/bm-head" compare "$work/out/base-$i.json" "$work/out/head-$i.json" >"$work/out/compare-$i.txt" || rc=$?
	cat "$work/out/compare-$i.txt"
	((rc <= 1)) || exit "$rc" # 1 is a regressed row, judged below; 2 is a result file compare could not read
done

regressed=$(awk -v pairs="$pairs" '
	$NF == "regressed" { n[$1 " " $2]++ }
	END { for (row in n) if (n[row] == pairs) print "  " row }' "$work"/out/compare-*.txt | sort)
if [ -n "$regressed" ]; then
	printf 'regressed in all %s pairs:\n%s\n' "$pairs" "$regressed"
	exit 1
fi
echo "no row regressed in all $pairs pairs"
