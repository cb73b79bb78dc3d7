#!/bin/sh
# The casted CLI input contract, checked on the built binary:
#   1. every subcommand that takes a benchmark rejects an unknown name
#      as a usage error (exit 124) that names the argument, before any
#      side effect and without an uncaught exception;
#   2. --trace and --metrics output is written on the non-zero exit
#      paths of `campaign` (3: inapplicable cell, 1: failed gate) and
#      `work` (2: not a store).
# Every case fails before or right after one tiny campaign, so the
# whole check takes well under a second.
#
# usage: cli_check.sh CASTED_EXE      (run by `dune runtest`)

casted=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch" || exit 1
failed=0

fail() {
  echo "cli_check: $*" >&2
  sed 's/^/  | /' err.txt >&2
  failed=1
}

# usage: unknown_benchmark ARGUMENT-NAME SUBCOMMAND [OPTIONS...]
unknown_benchmark() {
  what=$1
  shift
  rc=0
  "$casted" "$@" > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne 124 ]; then
    fail "casted $*: exit $rc, expected 124"
  elif grep -q "uncaught exception" err.txt; then
    fail "casted $*: uncaught exception"
  elif ! grep -q -- "$what" err.txt \
      || ! grep -q "unknown benchmark nonesuch" err.txt; then
    fail "casted $*: message does not name $what and the benchmark"
  fi
}

for cmd in compile run profile pressure placement campaign recover dme \
    "faults --fig 9" "faults --fig 10"; do
  # $cmd is split on purpose: "faults --fig 9" is a subcommand + option.
  unknown_benchmark "option '-w'" $cmd -w nonesuch
done
for cmd in sweep scaling verify "work --store wq --enqueue-only"; do
  unknown_benchmark "BENCHMARK" $cmd nonesuch
done
if [ -e wq ]; then
  echo "cli_check: work created its store before rejecting the benchmark" >&2
  failed=1
fi

valid_json() {
  if command -v python3 > /dev/null; then
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1"
  else
    [ -s "$1" ]
  fi
}

# usage: observed EXPECTED-EXIT TRACE-FILE SUBCOMMAND [OPTIONS...]
# Runs with --trace TRACE-FILE --metrics appended.
observed() {
  want=$1
  trace=$2
  shift 2
  rc=0
  "$casted" "$@" --trace "$trace" --metrics > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne "$want" ]; then
    fail "casted $*: exit $rc, expected $want"
  elif ! valid_json "$trace"; then
    fail "casted $*: exit $rc without a valid trace in $trace"
  fi
}

# A campaign's metrics table always counts its golden run.
observed 3 inapplicable.json campaign -w cjpeg -s noed \
  --fault-model xcluster --trials 8
grep -q "^sim.runs " out.txt || fail "inapplicable campaign: no metrics table"
observed 1 gate.json campaign -w cjpeg -s noed --trials 8 --min-recovered 90
grep -q "^sim.runs " out.txt || fail "failed gate: no metrics table"
mkdir not-a-store && touch not-a-store/README
observed 2 work.json work --store not-a-store
grep -q "no MANIFEST" err.txt || fail "work on a foreign directory: wrong message"

exit "$failed"
