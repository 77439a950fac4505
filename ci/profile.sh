#!/usr/bin/env bash
# Flat sampling profile of one repo-benchmark workload, without perf:
#
#   ci/profile.sh WORKLOAD [SECONDS] [SEED]
#
# Builds perfbench/main.exe and ci/sampler.c (gcc), runs the workload
# untraced (--trace 0) under the sampler, which stops the process every
# 200 us and reads its instruction pointer through ptrace, then maps each
# sample to the enclosing symbol of `nm -n -S` (or, outside the
# executable's symbols, to the shared object it fell in) and prints the
# top 15 with their share of the samples.  Only the sampler's own child is
# traced.  SECONDS defaults to 5, SEED to 7; the raw samples are kept in
# $TMPDIR.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
workload=$1 seconds=${2:-5} seed=${3:-7}
cd "$(dirname "$0")/.."

dune build --root . ./perfbench/main.exe
exe=_build/default/perfbench/main.exe
tmp=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
gcc -O2 -o "$tmp/sampler" ci/sampler.c
"$tmp/sampler" "$tmp/samples" 200 "$exe" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 >"$tmp/result" 2>"$tmp/stderr" ||
    { cat "$tmp/stderr" >&2; echo "profile: the workload failed" >&2; exit 1; }
nm -n -S --defined-only "$exe" >"$tmp/symbols"

python3 - "$tmp/samples" "$tmp/symbols" <<'PY'
import bisect, collections, os, sys

samples = sys.argv[1]
with open(samples) as f:
    base = int(f.readline(), 16)
    pcs = [int(l, 16) for l in f if l.strip()]
starts, ends, names = [], [], []
with open(sys.argv[2]) as f:
    for line in f:
        parts = line.split()
        if len(parts) == 4 and parts[2] in "tTwW":
            start = int(parts[0], 16)
            starts.append(start)
            ends.append(start + int(parts[1], 16))
            names.append(parts[3])
# Mappings at exit, to name the shared object a sample outside the
# executable's symbols fell in.
maps = []
if os.path.exists(samples + ".maps"):
    with open(samples + ".maps") as f:
        for line in f:
            parts = line.split()
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, os.path.basename(parts[5]) if len(parts) > 5 else "[anon]"))
# A position-independent executable's symbols are offsets from its base.
pie = bool(starts) and starts[0] < base
counts = collections.Counter()
for pc in pcs:
    off = pc - base if pie else pc
    i = bisect.bisect_right(starts, off) - 1
    if i >= 0 and off < ends[i]:
        counts[names[i]] += 1
    else:
        where = next((m for lo, hi, m in maps if lo <= pc < hi), "?")
        counts["(" + where + ")"] += 1
total = len(pcs)
print(f"{total} samples")
for name, n in counts.most_common(15):
    print(f"{100 * n / total:6.1f}%  {name}")
PY
echo "samples and result line in $tmp" >&2
