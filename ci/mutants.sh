#!/usr/bin/env bash
# Committed mutant suite: each ci/mutants/*.patch plants one fault in
# lib/ that a named test must catch.
#
#   bash ci/mutants.sh [PATCH...]      (default: every ci/mutants/*.patch)
#
# A patch opens with three header lines, then a unified diff against the
# repository root (applied with `git apply`, which skips the header):
#
#   # mutant: <what the plant breaks>
#   # run: <command, run from the root of the copy>
#   # fails: <test id as the alcotest suite prints it: "<suite> <name>">
#
# The working tree (tracked files and untracked ones .gitignore keeps) is
# copied once into a temporary directory.  Per patch the script applies
# it there, runs the command, and reverts it.  A patch passes when the
# command exits non-zero and reports its named test as [FAIL].  It fails
# the script when it no longer applies (refresh it in the change that
# broke it), when the command exits 0, or when other tests fail but not
# the named one.  No patch is skipped.  The unchanged tree's passing is
# CI's own test step.  Run from anywhere; set TMPDIR to keep the copy
# off /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(ci/mutants/*.patch)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
# `git apply` in the copy must not find a repository above it.
export GIT_CEILING_DIRECTORIES=$tmp
mkdir "$tmp/tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar -c --null -T - | tar -x -C "$tmp/tree"

# failed_ids LOG: the "<suite> <name>" of every [FAIL] line of LOG, one per
# line; a name alcotest cut short keeps its trailing "...".
failed_ids() {
    sed 's/\x1b\[[0-9;]*m//g' "$1" | grep -F '[FAIL]' |
        sed -E 's/^.*\[FAIL\][[:space:]]+//; s/[[:space:]]*(│)?[[:space:]]*$//' |
        sed -E 's/^([^[:space:]]+)[[:space:]]+[0-9]+[[:space:]]+/\1 /; s/([^.])\.$/\1/' |
        sort -u
}

# names ID FAILED: whether a failed id names ID (exactly, or cut short).
names() {
    local id=$1 f
    while IFS= read -r f; do
        [ "$f" = "$id" ] && return 0
        case $f in
            *...) [ "${id#"${f%...}"}" != "$id" ] && return 0 ;;
        esac
    done <<<"$2"
    return 1
}

status=0
for p in "${patches[@]}"; do
    p=$(cd "$(dirname "$p")" && pwd)/$(basename "$p")
    name=$(basename "$p" .patch)
    run=$(sed -n 's/^# run: //p' "$p" | head -n 1)
    id=$(sed -n 's/^# fails: //p' "$p" | head -n 1)
    if [ -z "$run" ] || [ -z "$id" ]; then
        echo "mutants: $name: header lacks '# run:' or '# fails:'"
        status=1
        continue
    fi
    if ! (cd "$tmp/tree" && git apply "$p") 2>"$tmp/$name.apply"; then
        echo "mutants: $name: no longer applies; refresh the patch"
        sed 's/^/  /' "$tmp/$name.apply"
        status=1
        continue
    fi
    start=$(date +%s)
    code=0
    (cd "$tmp/tree" && bash -c "$run") >"$tmp/$name.log" 2>&1 || code=$?
    (cd "$tmp/tree" && git apply -R "$p")
    failed=$(failed_ids "$tmp/$name.log")
    took=$(($(date +%s) - start))
    if [ "$code" -ne 0 ] && names "$id" "$failed"; then
        echo "mutants: $name: caught by '$id' (${took} s)"
    else
        echo "mutants: $name: NOT caught by '$id' (exit $code, ${took} s); failed tests:"
        if [ -n "$failed" ]; then sed 's/^/  /' <<<"$failed"; else echo "  none"; fi
        tail -n 20 "$tmp/$name.log" | sed 's/^/  | /'
        status=1
    fi
done
[ $status -eq 0 ] && echo "mutants: ${#patches[@]} mutant(s), all caught"
exit $status
