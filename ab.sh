#!/usr/bin/env bash
# Interleaved A/B pairs of the repository's benchmark: the parent commit
# against the working tree, run alternately on this host so that host drift
# hits both sides alike. Pair i runs `bench/run.sh -workload W -runs 1` once
# on each side, the parent first in odd pairs and the change first in even
# ones. For every workload and end-to-end metric of BENCHMARK.json it then
# prints the per-pair values, how many pairs the change wins, both medians
# with their quartiles, and the median gap over the parent's interquartile
# range (positive = the change is better).
#
#   bash ab.sh [-n PAIRS] [-base REV] [-parent DIR] [-seed S] [-seconds T] [WORKLOAD...]
#   make ab W="fill get_hot" N=5
#
# The parent is checked out with `git worktree add` under .bench_build/ and
# removed on exit; -parent names an existing checkout to use instead. REV
# defaults to HEAD when the working tree has uncommitted changes and to
# HEAD^ otherwise. No workload means all of BENCHMARK.json's. Each run's
# JSON is kept under .bench_build/ab/. Builds use the local Go toolchain and
# download nothing (bench/run.sh sets GOTOOLCHAIN=local and GOPROXY=off).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
pairs=5 base="" parent="" seed=7 seconds=10
while [ $# -gt 0 ]; do
	case $1 in
	-n) pairs=$2; shift 2 ;;
	-base) base=$2; shift 2 ;;
	-parent) parent=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi

if [ -z "$parent" ]; then
	if [ -z "$base" ]; then
		base=HEAD
		git -C "$root" diff --quiet HEAD -- && base=HEAD^
	fi
	parent=$root/.bench_build/ab-parent
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || rm -rf "$parent"
	git -C "$root" worktree prune
	git -C "$root" worktree add --detach "$parent" "$base" >/dev/null
	trap 'git -C "$root" worktree remove --force "$parent"; git -C "$root" worktree prune' EXIT
	echo "ab: parent $(git -C "$parent" rev-parse --short HEAD) ($base) vs the working tree, $pairs pairs"
fi
out=$root/.bench_build/ab
mkdir -p "$out"

run() { # side dir workload pair
	bash "$2/bench/run.sh" -workload "$3" -runs 1 -seed "$seed" -seconds "$seconds" \
		-out "$out/$3-$4-$1.json" >"$out/$3-$4-$1.log" 2>&1 ||
		echo "ab: $1 run of $3 (pair $4) exited non-zero; see $out/$3-$4-$1.log" >&2
}
for w in "${workloads[@]}"; do
	rm -f "$out/$w"-*.json
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$parent" "$w" "$i"
		fi
		echo "ab: $w pair $i/$pairs done" >&2
	done
done

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

spec, out, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec))["end_to_end"]

def load(w, i, side):
    path = os.path.join(out, f"{w}-{i}-{side}.json")
    return json.load(open(path))["runs"][0] if os.path.exists(path) else None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)  # exclusive method, as bench/compare.go uses
    return q[0], q[2]

for w in workloads:
    runs = {side: [load(w, i, side) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    print(f"\n== {w} ({pairs} pairs, parent first in odd pairs)")
    for side, rs in runs.items():
        failed = [r["failed"] if r else "missing" for r in rs]
        wrong = sum(1 for r in rs if r and not r["correct"])
        print(f"  {side:6} failed ops per pair: {failed}, runs with a wrong answer: {wrong}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] if r and name in r["metrics"] else None for r in rs]
                for side, rs in runs.items()}
        both = [(p, c) for p, c in zip(vals["parent"], vals["change"]) if p is not None and c is not None]
        if not both:
            continue
        ps, cs = [p for p, _ in both], [c for _, c in both]
        wins = sum(1 for p, c in both if (c > p if higher else c < p))
        pm, cm = statistics.median(ps), statistics.median(cs)
        (pq1, pq3), (cq1, cq3) = quartiles(ps), quartiles(cs)
        iqr = pq3 - pq1
        gap = (cm - pm) if higher else (pm - cm)
        over = f"{gap / iqr:+.2f}" if iqr > 0 else "n/a"
        print(f"  {name} ({m['unit']}, {m['better']} is better)")
        print("    pairs (parent -> change): " + ", ".join(f"{p:.6g}->{c:.6g}" for p, c in both))
        print(f"    change wins {wins}/{len(both)}; parent median {pm:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g}); "
              f"change median {cm:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g}); "
              f"change {100 * (cm - pm) / pm if pm else 0:+.1f} %; gap/parent IQR {over}")
EOF
