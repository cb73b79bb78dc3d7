#!/usr/bin/env bash
# Result-store end-to-end check, the store-smoke CI job:
#
#   1. zero-resimulation fast path — a campaign run cold into a store
#      and rerun warm must serve every trial from disk (0 simulated)
#      with a tally bit-identical to a storeless reference run;
#   2. crash resume — a store campaign is SIGKILLed once its entry file
#      appears; rerunning it at --jobs 1 and --jobs 4 serves
#      the banked chunks (nonzero served trials) and reproduces the
#      reference tally;
#   3. early-stop cells — a --ci-halfwidth campaign run cold into a
#      store stops early exactly where the storeless run stops, and the
#      warm rerun simulates nothing;
#   4. store hygiene — `casted store gc` sweeps an aged tmp file
#      planted in part 2's killed store, `casted store audit`
#      re-simulates a banked entry and agrees with it, and an entry of
#      one shard of a cell (written before sharding was retired) is a
#      located error in `casted store ls` and `audit`, not a crash.
#
# The SIGKILL drill polls for the first banked entry and kills at once;
# TRIALS must be long enough that the kill lands mid-run.
#
# Knobs:
#   CASTED_BIN  path to the casted binary
#               (default _build/default/bin/casted.exe)
#   TRIALS      campaign length (default 24000; must be long enough
#               that the SIGKILL lands before the campaign finishes)
#   MODEL       fault model to campaign under (default reg-bit)
set -euo pipefail

BIN=${CASTED_BIN:-_build/default/bin/casted.exe}
TRIALS=${TRIALS:-24000}
MODEL=${MODEL:-reg-bit}
ARGS=(campaign -w cjpeg -s casted --issue 2 --delay 2
      --trials "$TRIALS" --fault-model "$MODEL")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Only the tally lines are comparable across runs: the jobs count, the
# store summary and the replay statistics (absent when nothing was
# simulated) legitimately differ.
tally() { grep -E '^[0-9]+ trials |^recovered:' "$1"; }

must_match() { # reference-tally actual-out label
  tally "$2" > "$2.tally"
  if ! diff -u "$1" "$2.tally"; then
    echo "store_check: $3 tally differs from the reference" >&2
    exit 1
  fi
}

must_serve() { # out served simulated label
  if ! grep -q "$2 trials served, $3 simulated" "$1"; then
    echo "store_check: $4: expected '$2 trials served, $3 simulated'" >&2
    cat "$1" >&2
    exit 1
  fi
}

echo "== reference: uninterrupted, storeless campaign"
"$BIN" "${ARGS[@]}" --jobs 2 > "$workdir/reference.out"
tally "$workdir/reference.out" > "$workdir/reference.tally"

store="$workdir/store"
echo "== cold fill into $store"
"$BIN" "${ARGS[@]}" --jobs 2 --store "$store" > "$workdir/cold.out"
must_serve "$workdir/cold.out" 0 "$TRIALS" "cold fill"
must_match "$workdir/reference.tally" "$workdir/cold.out" "cold fill"

echo "== warm rerun must simulate zero trials"
"$BIN" "${ARGS[@]}" --jobs 4 --store "$store" > "$workdir/warm.out"
must_serve "$workdir/warm.out" "$TRIALS" 0 "warm rerun"
must_match "$workdir/reference.tally" "$workdir/warm.out" "warm rerun"

# Wait (up to 20 s) for the first banked entry under $1/entries.
wait_for_entry() {
  for _ in $(seq 1 400); do
    [ -n "$(find "$1/entries" -name '*.entry' 2>/dev/null)" ] && return 0
    sleep 0.05
  done
  return 1
}

number_before() { # out word — the number printed before "word"
  grep -oE "[0-9]+ $2" "$1" | grep -oE '[0-9]+' | head -1
}

echo "== crash resume: campaign SIGKILLed after banking a chunk"
store3="$workdir/store3"
"$BIN" "${ARGS[@]}" --jobs 1 --store "$store3" > "$workdir/killed.out" 2>&1 &
pid=$!
banked=yes
wait_for_entry "$store3" || banked=no
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ "$banked" = no ]; then
  echo "store_check: the campaign exited without banking a partial entry" >&2
  cat "$workdir/killed.out" >&2
  exit 1
fi
for jobs in 1 4; do
  cp -r "$store3" "$store3.$jobs"
  "$BIN" "${ARGS[@]}" --jobs "$jobs" --store "$store3.$jobs" \
    > "$workdir/resumed.$jobs.out"
  served=$(number_before "$workdir/resumed.$jobs.out" "trials served")
  simulated=$(number_before "$workdir/resumed.$jobs.out" simulated)
  if [ "${served:-0}" -eq 0 ]; then
    echo "store_check: --jobs $jobs resume served zero trials — the killed" >&2
    echo "             campaign's banked chunks were not reused" >&2
    cat "$workdir/resumed.$jobs.out" >&2
    exit 1
  fi
  if [ "${simulated:-0}" -eq 0 ]; then
    echo "store_check: --jobs $jobs resume simulated nothing — the campaign" >&2
    echo "             finished before the kill; raise TRIALS" >&2
    exit 1
  fi
  echo "   --jobs $jobs: served $served banked trials, simulated $simulated"
  must_match "$workdir/reference.tally" "$workdir/resumed.$jobs.out" \
    "--jobs $jobs crash resume"
done

echo "== early-stop cell: cold and warm --ci-halfwidth runs"
CI=(--ci-halfwidth 2)
"$BIN" "${ARGS[@]}" "${CI[@]}" --jobs 2 > "$workdir/ci.reference.out"
tally "$workdir/ci.reference.out" > "$workdir/ci.reference.tally"
store4="$workdir/store4"
"$BIN" "${ARGS[@]}" "${CI[@]}" --jobs 2 --store "$store4" > "$workdir/ci.cold.out"
"$BIN" "${ARGS[@]}" "${CI[@]}" --jobs 4 --store "$store4" > "$workdir/ci.warm.out"
for run in cold warm; do
  if ! grep -q "stopped early" "$workdir/ci.$run.out"; then
    echo "store_check: the $run --ci-halfwidth run did not stop early" >&2
    cat "$workdir/ci.$run.out" >&2
    exit 1
  fi
  must_match "$workdir/ci.reference.tally" "$workdir/ci.$run.out" \
    "$run --ci-halfwidth"
done
stop=$(sed -n 's|^stopped early at \([0-9]*\)/.*|\1|p' "$workdir/ci.reference.out")
must_serve "$workdir/ci.cold.out" 0 "$stop" "cold --ci-halfwidth"
must_serve "$workdir/ci.warm.out" "$stop" 0 "warm --ci-halfwidth"
echo "   stopped early at $stop trials, cold and warm"

echo "== gc sweeps the killed campaign's debris; audit re-simulates"
# gc removes only tmp files older than a minute, so plant one that a
# writer killed two minutes ago would have left.
debris="$store3/entries/0123abcd.entry.tmp.99999"
printf 'half-written' > "$debris"
touch -d '2 minutes ago' "$debris"
"$BIN" store gc "$store3" | tee "$workdir/gc.out"
if ! grep -q "^gc: removed 1 tmp files" "$workdir/gc.out" \
    || [ -e "$debris" ]; then
  echo "store_check: store gc did not sweep the aged tmp file" >&2
  exit 1
fi
"$BIN" store audit "$store" --sample 1 --jobs 2

echo "== an entry of a retired shard is a located error, not a crash"
legacy="$workdir/legacy"
mkdir -p "$legacy/entries"
echo "casted-store v1" > "$legacy/MANIFEST"
shard_entry="$legacy/entries/bbcec7c3ea7cebef0fc30d268bdd0f78.entry"
printf '%s\n' "casted-store-entry v1" \
  "identity=cjpeg/fault/CASTED/i2/d2/reg-bit" seed=13260781 fuel_factor=10 \
  retry_budget=-1 shard=1/2 trials=200 trials_done=72 counts=8,61,3,0,0,0 \
  golden_cycles=4654 golden_dyn=13418 population=11634 model=reg-bit \
  > "$shard_entry"
for cmd in ls audit; do
  rc=0
  "$BIN" store "$cmd" "$legacy" > "$workdir/legacy.$cmd.out" 2>&1 || rc=$?
  if [ "$rc" -ne 1 ] || grep -q "exception" "$workdir/legacy.$cmd.out" \
      || ! grep -q "$shard_entry: .*no longer supported" \
        "$workdir/legacy.$cmd.out"; then
    echo "store_check: store $cmd on a shard entry (exit $rc)" >&2
    cat "$workdir/legacy.$cmd.out" >&2
    exit 1
  fi
done

echo "store_check: OK — warm store serves campaigns with zero simulation,"
echo "             early-stop cells stop where storeless runs stop, and a"
echo "             SIGKILLed campaign's banked chunks are reused on the way"
echo "             to the bit-identical tally"
