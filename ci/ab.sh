#!/usr/bin/env bash
# Alternating A/B campaign of the repo benchmark between two revisions:
#
#   ci/ab.sh BASE HEAD --workload W [--pairs N] [--seconds S] [--seed K]
#            [--trace 0|1] [--out DIR]
#
# BASE and HEAD are each a git revision (`git stash create` names an
# uncommitted tree) or an existing checkout directory.  A revision is
# checked out in its own `git worktree` under a temporary directory, a
# directory is used in place (no worktree; run no other dune in it
# meanwhile); each side is built once, then N pairs of
# `perfbench/run.py` runs alternate between them, BASE first in odd pairs
# and HEAD first in even ones, so host drift hits both sides alike.  Every
# run's stdout, stderr and exit status is kept under DIR (default: a
# fresh directory, printed at the end).  A run that exits non-zero, prints
# no result line or reports `"correct": false` aborts the campaign and
# prints its stderr: a missing run is never skipped.
#
# Prints one markdown table: per metric, each side's median [quartiles],
# the pairs HEAD won (ties count for neither side), the change of the
# median, whether that gap exceeds BASE's interquartile range, and a
# verdict.  A gain needs HEAD to win at least 9 of 10 pairs and a gap
# beyond BASE's IQR.  Otherwise an end-to-end metric is unresolved when
# BASE's own IQR is wider than its BENCHMARK.json bound (unless every
# HEAD run beats every BASE run), a regression when its median is worse
# by more than the bound, and within bound else.
set -euo pipefail

usage() {
    sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1 head_rev=$2
shift 2
workload= pairs=10 seconds=25 seed=7 trace=0 out=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        --trace) trace=$2 ;;
        --out) out=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] || usage
case $pairs in '' | *[!0-9]* | 0) echo "ab.sh: --pairs must be a positive integer" >&2; exit 2 ;; esac

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
# resolve REV: an existing directory's absolute path, else the commit.
resolve() {
    if [ -d "$1" ]; then (cd "$1" && pwd); else git -C "$repo" rev-parse --verify "$1^{commit}"; fi
}
base_src=$(resolve "$base_rev")
head_src=$(resolve "$head_rev")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
out=${out:-$tmp/logs}
mkdir -p "$out"
cleanup() {
    for side in base head; do
        if [ -d "$tmp/$side" ]; then
            git -C "$repo" worktree remove --force "$tmp/$side" || true
        fi
    done
    git -C "$repo" worktree prune
}
trap cleanup EXIT

declare -A dir
for side in base head; do
    src=$base_src
    [ $side = head ] && src=$head_src
    if [ -d "$src" ]; then
        dir[$side]=$src
    else
        git -C "$repo" worktree add --quiet --detach "$tmp/$side" "$src"
        dir[$side]=$tmp/$side
    fi
    echo "ab: building $side ($src)" >&2
    if ! (cd "${dir[$side]}" &&
        DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe) \
        >"$out/$side-build.log" 2>&1; then
        cat "$out/$side-build.log" >&2
        echo "ab: $side does not build; campaign aborted" >&2
        exit 1
    fi
done

# run SIDE PAIR: one benchmark run, its output kept, aborting on failure.
run() {
    local side=$1 pair=$2 log
    log=$out/$side-$(printf %02d "$pair")
    local status=0
    (cd "${dir[$side]}" &&
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace") \
        >"$log.out" 2>"$log.err" || status=$?
    echo "$status" >"$log.status"
    local last
    last=$(tail -n 1 "$log.out")
    if [ "$status" -ne 0 ] || [ "${last:0:1}" != "{" ] ||
        ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' "$last"; then
        echo "ab: $side run of pair $pair (exit $status) gave no valid result; campaign aborted." >&2
        echo "ab: its stderr ($log.err):" >&2
        cat "$log.err" >&2
        echo "ab: logs kept in $out" >&2
        exit 1
    fi
}

for pair in $(seq "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        run "$side" "$pair"
    done
    echo "ab: pair $pair of $pairs done" >&2
done

python3 - "$out" "$pairs" "${dir[base]}/BENCHMARK.json" "$trace" <<'EOF'
import json, sys

out, pairs, bench_file, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
with open(bench_file) as f:
    bench = json.load(f)
spec = {m["name"]: m for m in bench["per_layer" if trace == "1" else "end_to_end"]}

def result(side, pair):
    with open("%s/%s-%02d.out" % (out, side, pair)) as f:
        return json.loads(f.read().rstrip("\n").split("\n")[-1])

runs = {s: [result(s, p) for p in range(1, pairs + 1)] for s in ("base", "head")}

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def fmt(x):
    return "%.4g" % x

print("| metric | unit | base median [q1, q3] | head median [q1, q3] | head wins | change | gap > base IQR | verdict |")
print("|---|---|---|---|---|---|---|---|")
for name, m in spec.items():
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    h = [r["metrics"][name]["value"] for r in runs["head"]]
    lower = m["better"] == "lower"
    wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
    bm, hm = quantile(b, 0.5), quantile(h, 0.5)
    iqr = quantile(b, 0.75) - quantile(b, 0.25)
    gap = (bm - hm) if lower else (hm - bm)  # > 0: head better
    change = "%+.2f%%" % (100 * (hm - bm) / bm) if bm else "n/a"
    beyond = abs(gap) > iqr
    all_better = (max(h) < min(b)) if lower else (min(h) > max(b))
    if wins * 10 >= 9 * pairs and gap > iqr:
        verdict = "gain"
    elif "bound" not in m:
        verdict = "-"
    elif iqr > m["bound"] * abs(bm) and not all_better:
        verdict = "unresolved"
    elif -gap > m["bound"] * abs(bm):
        verdict = "regression"
    else:
        verdict = "within bound"
    print("| %s | %s | %s [%s, %s] | %s [%s, %s] | %d/%d | %s | %s | %s |" % (
        name, m["unit"],
        fmt(bm), fmt(quantile(b, 0.25)), fmt(quantile(b, 0.75)),
        fmt(hm), fmt(quantile(h, 0.25)), fmt(quantile(h, 0.75)),
        wins, pairs, change, "yes" if beyond else "no", verdict))
fails = {s: sum(r["failed"] for r in runs[s]) for s in runs}
att = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
print()
print("failed/attempted: base %d/%d, head %d/%d" % (
    fails["base"], att["base"], fails["head"], att["head"]))
EOF
echo "ab: logs kept in $out" >&2
