#!/usr/bin/env bash
# Every export of lib/ and every optional argument of an exported function
# needs a user outside its own module and outside test/, or a line in
# ci/exports.allow saying why it stays.
#
#   bash ci/exports.sh
#
# Builds the typed trees (dune build @check), runs ci/exports/exports.exe
# over them and exits 1 on a finding that the allowlist does not name, on
# an allowlist line that is no longer a finding, or on an allowlist line
# whose reason starts with "dead:": a value whose only user is its own
# unit test is deleted with that test, not parked.  It also exits 1 when
# a lib/ source other than lib/sim/packet.ml names Domain.DLS: the packet
# arena is the library's one domain-local key (DESIGN.md §5).  And it
# exits 1 on any polymorphic comparison left in lib/ (ci/exports/polycmp.exe:
# Stdlib.min/max at any type, or =, <>, <, >, <=, >=, compare at a type the
# compiler leaves polymorphic), with no allowlist: on the packet path such a
# compare is a call into the C runtime (DESIGN.md §5).  Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
dls=$(grep -rlw --include='*.ml' DLS lib | grep -vx lib/sim/packet.ml || true)
if [ -n "$dls" ]; then
  echo "exports: Domain.DLS outside lib/sim/packet.ml, the one domain-local key:"
  sed 's/^/  /' <<<"$dls"
  status=1
fi

dune build @check ./ci/exports/exports.exe ./ci/exports/polycmp.exe
findings=$(./_build/default/ci/exports/exports.exe _build/default)
polycmp=$(./_build/default/ci/exports/polycmp.exe _build/default)
if [ -n "$polycmp" ]; then
  echo "exports: polymorphic comparisons in lib/ (write Int.min/max," \
    "Ispn_util.Fcmp.fmin/fmax, a typed compare or Option.is_none):"
  sed 's/^/  /' <<<"$polycmp"
  status=1
fi
allowed=$(grep -v '^#' ci/exports.allow | sed 's/ -- .*//')

dead=$(grep -v '^#' ci/exports.allow | grep -e ' -- dead:' || true)
if [ -n "$dead" ]; then
  echo "exports: ci/exports.allow parks dead code; delete it and its tests:"
  sed 's/^/  /' <<<"$dead"
  status=1
fi
new=$(comm -23 <(sort <<<"$findings") <(sort <<<"$allowed"))
stale=$(comm -13 <(sort <<<"$findings") <(sort <<<"$allowed"))
if [ -n "$new" ]; then
  echo "exports: no user outside its module and test/, and not in ci/exports.allow:"
  sed 's/^/  /' <<<"$new"
  status=1
fi
if [ -n "$stale" ]; then
  echo "exports: ci/exports.allow names what is no longer a finding:"
  sed 's/^/  /' <<<"$stale"
  status=1
fi
if [ $status -eq 0 ]; then
  echo "exports: $(grep -c . <<<"$findings") finding(s), all allowlisted;" \
    "no polymorphic comparison in lib/"
fi
exit $status
