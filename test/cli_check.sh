#!/bin/sh
# The casted CLI input contract, checked on the built binary:
#   1. every subcommand that takes a benchmark rejects an unknown name
#      as a usage error (exit 124) that names the argument, before any
#      side effect and without an uncaught exception;
#   2. --trace and --metrics output is written on the non-zero exit
#      paths of `campaign` (3: inapplicable cell, 1: failed gate, 2: not
#      a store);
#   3. a path that cannot be used (a store that cannot be created, a
#      directory given to `asm`, an unwritable --trace file) is a
#      located message with a documented exit code, not an uncaught
#      exception;
#   4. `sweep` defaults to the perf-size inputs `repro` uses for
#      Figs. 6-8.
# Every case fails before or right after one tiny campaign or a
# one-benchmark sweep, so the whole check takes about a second.
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
for cmd in sweep scaling verify; do
  unknown_benchmark "BENCHMARK" $cmd nonesuch
done

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
observed 2 store.json campaign --trials 8 --store not-a-store
grep -q "no MANIFEST" err.txt \
  || fail "campaign on a foreign directory: wrong message"

# usage: located EXPECTED-EXIT MESSAGE COMMAND [OPTIONS...]
located() {
  want=$1
  message=$2
  shift 2
  rc=0
  "$casted" "$@" > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne "$want" ]; then
    fail "casted $*: exit $rc, expected $want"
  elif grep -q "uncaught exception" err.txt; then
    fail "casted $*: uncaught exception"
  elif ! grep -q -- "$message" err.txt; then
    fail "casted $*: message does not say '$message'"
  fi
}

touch afile
located 2 "afile/sub: cannot create store: Not a directory" \
  campaign --trials 8 --store afile/sub
located 2 "afile/sub: cannot create store: Not a directory" \
  repro --trials 8 --store afile/sub
located 1 "^.: Is a directory" asm .
located 2 "cannot write trace to missing/t.json: No such file or directory" \
  run -w cjpeg --trace missing/t.json

"$casted" sweep cjpeg -j 2 > default.txt 2> err.txt
"$casted" sweep --size perf cjpeg -j 2 > perf.txt 2>> err.txt
cmp -s default.txt perf.txt \
  || fail "sweep cjpeg: the default size is not the perf size repro uses"

exit "$failed"
