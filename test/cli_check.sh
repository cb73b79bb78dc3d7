#!/bin/sh
# The casted CLI input contract, checked on the built binary:
#   1. every subcommand that takes a benchmark rejects an unknown name
#      as a usage error (exit 124) that names the argument, before any
#      side effect and without an uncaught exception; a retired
#      subcommand is a usage error too;
#   2. --trace and --metrics output is written on the non-zero exit
#      paths of `campaign` (3: inapplicable cell, 1: failed gate, 2: not
#      a store) and by `repro`, whose report tracing leaves unchanged;
#   3. a path that cannot be used (a store that cannot be created, an
#      empty store path, a directory given to `asm`, an unwritable
#      --trace file) is a located message with a documented exit code,
#      not an uncaught exception;
#   4. `asm --emit` output parses back under every hardened scheme, and
#      `asm` refuses to harden such annotated code again (a located
#      message, exit 1) but still simulates it under -s noed.
# Every case fails before or right after one tiny campaign or a
# fault-size repro at 8 trials, so the whole check takes a few seconds.
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

for cmd in compile run profile pressure campaign; do
  unknown_benchmark "option '-w'" $cmd -w nonesuch
done
unknown_benchmark "BENCHMARK" verify nonesuch

# The per-figure subcommands are retired: `repro` prints every figure;
# `version` is `casted --version`.
for cmd in tables sweep scaling faults dme recover placement version; do
  rc=0
  "$casted" $cmd > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne 124 ]; then
    fail "casted $cmd: exit $rc, expected 124"
  elif grep -q "uncaught exception" err.txt; then
    fail "casted $cmd: uncaught exception"
  fi
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

# Figure runs trace too, and tracing is passive: the report is the
# same bytes with and without --trace.
observed 0 repro.json repro --size fault --trials 8 -j 2
grep -q "^sim.runs " out.txt || fail "repro --metrics: no metrics table"
"$casted" repro --size fault --trials 8 > plain.txt 2> err.txt
"$casted" repro --size fault --trials 8 --trace t.json > traced.txt 2> err.txt
cmp -s plain.txt traced.txt || fail "repro --trace: the report changed"

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
located 2 '"": empty store path' campaign --trials 8 --store ""
located 1 "^.: Is a directory" asm .
located 2 "cannot write trace to missing/t.json: No such file or directory" \
  run -w cjpeg --trace missing/t.json

cat > k.casted <<'EOF'
program entry=main mem=65536 output=64:8
func main() {
entry:
  movi r0, 0
  movi r1, 0
  br head
head:
  cmpi.lt p0, r1, 10
  brc.t p0, body, done
body:
  add r0, r0, r1
  addi r1, r1, 1
  br head
done:
  movi r2, 64
  st8 r0, [r2+0]
  halt
}
EOF
for s in sced casted dme tmr rollback; do
  rc=0
  "$casted" asm --emit -s $s k.casted > h.casted 2> err.txt || rc=$?
  [ "$rc" -eq 0 ] || fail "casted asm --emit -s $s: exit $rc"
  rc=0
  "$casted" asm -s noed h.casted > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne 0 ] || ! grep -q "NOED: exit 0 in" out.txt; then
    fail "casted asm -s noed on the $s listing: exit $rc"
  fi
  located 1 "^h.casted: already hardened" asm -s casted h.casted
  located 1 "^h.casted: already hardened" asm -s sced h.casted
done

# Inside a store, "" must not resolve to it.
"$casted" campaign --trials 8 --store made > /dev/null 2> err.txt \
  || fail "campaign --store made: could not create a store"
rc=0
(cd made && "$casted" campaign --trials 8 --store "") > out.txt 2> err.txt \
  || rc=$?
if [ "$rc" -ne 2 ] || grep -q "trials served" out.txt \
    || ! grep -q '"": empty store path' err.txt; then
  fail "campaign --store \"\" inside a store: exit $rc"
fi

exit "$failed"
