#!/bin/sh
# bench-gate: the benchmark regression gate.
#
# Runs bench/'s traced table3 workload three times on this checkout (HEAD)
# and three times on the git ref BASE, alternating which side goes first,
# and fails if any run is not correct, if HEAD's median core.execs_per_s
# is below BASE's / 1.6, or if HEAD's median sched.ns_per_iter is above
# BASE's x 1.6. BASE is extracted with `git archive`, so the checkout is
# left as it was.
#
#   sh scripts/bench_gate.sh BASE
#
# 1.6x is a step-function tolerance: six same-commit traced table3 runs
# on a 2-vCPU x86-64 VM spread 1.37x in core.execs_per_s and 1.40x in
# sched.ns_per_iter. interp.ns_per_step spread 2.1x over four runs and is
# not gated. The six runs' JSON outputs stay in .bench_build/gate/.
set -eu

base=${1:?usage: sh scripts/bench_gate.sh BASE}
tol=1.6
pairs=3

cd "$(dirname "$0")/.."
head=$(pwd)
out="$head/.bench_build/gate"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

fail() { echo "bench-gate: FAIL: $*" >&2; exit 1; }

git rev-parse -q --verify "$base^{commit}" >/dev/null || fail "$base is not a commit"
rm -rf "$out"
mkdir -p "$out"
git archive "$base" | tar -x -C "$tmp"

# run SIDE DIR I: traced table3 run I of the checkout in DIR.
run() {
    f="$out/$1-$3.json"
    (cd "$2" && bash bench/run.sh -workload table3 -seed 1 -j 2 -seconds 0 -trace 1) >"$f" ||
        fail "$1 run $3 exited non-zero (see $f)"
    tail -n 1 "$f" | grep -q '"correct":true' || fail "$1 run $3 is not correct (see $f)"
    echo "bench-gate: $1 run $3 done"
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run head "$head" "$i"; run base "$tmp" "$i"
    else
        run base "$tmp" "$i"; run head "$head" "$i"
    fi
    i=$((i + 1))
done

# median SIDE METRIC: the middle of the side's values of METRIC.
median() {
    for f in "$out/$1"-*.json; do
        tail -n 1 "$f" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
    done | sort -n | sed -n "$(((pairs + 1) / 2))p"
}

# check METRIC higher|lower: compare the medians under the tolerance.
status=0
check() {
    h=$(median head "$1")
    b=$(median base "$1")
    [ -n "$h" ] && [ -n "$b" ] || fail "$1 is missing from the runs"
    if awk -v h="$h" -v b="$b" -v t="$tol" -v better="$2" \
        'BEGIN { exit !(better == "higher" ? h < b / t : h > b * t) }'; then
        echo "bench-gate: FAIL: $1 regressed: HEAD median $h vs BASE median $b ($2 is better, tolerance ${tol}x)" >&2
        status=1
    else
        echo "bench-gate: ok: $1: HEAD median $h vs BASE median $b"
    fi
}
check core.execs_per_s higher
check sched.ns_per_iter lower
exit "$status"
