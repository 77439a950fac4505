#!/usr/bin/env bash
# Regenerate the golden outputs under test/golden/ that CI's run-all step
# compares against: the run-all `bench --fast` stdout (with its [obs]
# footers), its --metrics export, and the SHA-256 of its --series export
# (1.1 MB, too large to commit).
#
#   bash ci/bless.sh
#
# A change that alters any of them says why in CHANGES.md.  Run from
# anywhere; writes m1.json and s1.json at the repo root, as CI does.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
./_build/default/bench/main.exe --fast -j 2 --metrics m1.json --series s1.json \
  > test/golden/fast.out
cp m1.json test/golden/fast.metrics.json
sha256sum < s1.json | cut -d' ' -f1 > test/golden/fast.series.sha256
