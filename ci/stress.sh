#!/usr/bin/env bash
# Crash loop over the two ways a `scale` run places its shards on
# domains, for large-N campaigns by hand (no CI step runs it):
#
#   ci/stress.sh [N] [--out DIR]
#
# Builds perfbench/main.exe and bin/ispn_sim.exe, then alternates N
# traced `perfbench/main.exe --workload scale --seed 1 --seconds 1
# --trace 1` runs (one shard, on the calling domain) with N
# `ispn_sim scale --shards 2 --check --duration 5` runs (two shards, so
# one domain is spawned and joined per run).  Every run's stderr and exit
# status is kept under DIR (default: a fresh temporary directory, printed
# at the end).  All 2N runs always happen; the script exits 1 if any of
# them exited non-zero (a crash, a failed result check or a failed
# `--check` audit) and prints the failing runs' stderr.  N defaults to 20.
set -euo pipefail

n=20 out=
if [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; then n=$1; shift; fi
while [ $# -gt 0 ]; do
    case $1 in
        --out) [ $# -ge 2 ] || { echo "stress.sh: --out needs a value" >&2; exit 2; }
               out=$2; shift 2 ;;
        *) sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2 ;;
    esac
done
case $n in '' | *[!0-9]* | 0) echo "stress.sh: N must be a positive integer" >&2; exit 2 ;; esac

cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe ./bin/ispn_sim.exe
bench=_build/default/perfbench/main.exe
sim=_build/default/bin/ispn_sim.exe
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/stress.XXXXXX")}
mkdir -p "$out"

failed=0 bench_failed=0 sim_failed=0
start=$(date +%s)
for i in $(seq 1 "$n"); do
    st=0
    "$bench" --workload scale --seed 1 --seconds 1 --trace 1 \
        > /dev/null 2> "$out/bench-$i.err" || st=$?
    echo "$st" > "$out/bench-$i.status"
    if [ "$st" -ne 0 ]; then
        bench_failed=$((bench_failed + 1)) failed=1
        echo "== perfbench scale run $i exited $st" >&2
        cat "$out/bench-$i.err" >&2
    fi
    st=0
    "$sim" scale --shards 2 --check --duration 5 \
        > /dev/null 2> "$out/sim-$i.err" || st=$?
    echo "$st" > "$out/sim-$i.status"
    if [ "$st" -ne 0 ]; then
        sim_failed=$((sim_failed + 1)) failed=1
        echo "== ispn_sim scale --shards 2 run $i exited $st" >&2
        cat "$out/sim-$i.err" >&2
    fi
done
echo "stress: perfbench scale --trace 1: $bench_failed/$n failed;" \
    "ispn_sim scale --shards 2 --check: $sim_failed/$n failed;" \
    "$(($(date +%s) - start)) s; logs in $out"
exit "$failed"
