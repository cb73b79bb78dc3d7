(** Stage-2 compilation of a pre-decoded program into threaded code:
    one pre-bound closure per instruction, with the opcode arm, operand
    register indices and classes, latency, immediates, branch/callee
    targets and fault-site hooks all resolved at compile time. The hot
    loop is a flat array walk — no per-instruction opcode or class
    dispatch, no fault-option matching, no bounds checks (proven at
    compile time). Executing an instruction allocates nothing, in dev
    and release builds alike: what a run still allocates is its
    machine (entry frame, counters, run record), recursive callee
    frames and cold paths (a fault firing, a trapping access), about
    0.001 minor words per instruction on perf-size golden runs.

    This is the engine every production run executes on — golden runs,
    replay capture, campaign trials and rollback recovery. Outcomes are
    bit-identical to the reference interpreter
    ([Simulator.reference]): both engines mutate the same [State.t]
    with the same event ordering, fire their block-top hooks at the
    same program points, and the verify oracle cross-checks them over
    the whole example matrix. Compiled programs are immutable and
    domain-safe: compile once, run from any number of domains
    concurrently (each run carries its own [State.t]). *)

type t
(** A compiled program: the decoded form plus per-function closure
    arrays. Safe to share read-only across domains. *)

val of_decoded : Decode.t -> t
(** Lower a decoded program to threaded code. Costs one pass over the
    program; a campaign lowers once and shares the result across its
    pool domains ({!Montecarlo.run}). *)

val decoded : t -> Decode.t
(** The decoded program this was compiled from (shared, not copied). *)

val run :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  ?snapshot:State.snapshot ->
  ?on_block:(State.t -> State.regfile -> int -> unit) ->
  ?retry_budget:int ->
  ?timed:bool ->
  t ->
  Outcome.run
(** Execute a compiled program. Same semantics and same results as
    [Simulator.reference] on the underlying decoded program.

    @param fault optional single transient fault to inject.
    @param fuel dynamic-instruction budget; exceeding it terminates the
      run with {!Outcome.Timeout}.
    @param with_mem_digest fill [mem_digest] with a digest of the final
      memory image (default false).
    @param snapshot resume from this golden-prefix snapshot (taken at an
      entry-function block top — snapshots are engine independent) and
      execute only the suffix. Bit-identical to the full run whenever
      the snapshot precedes the fault's trigger event (see
      {!Replay.find}); counters and cycles resume from the snapshot, so
      every field reports whole-run totals.
    @param on_block called at every entry-function block top with the
      call stack empty (depth 1) — with the machine state, the entry
      register file and the block index about to execute — exactly
      where the reference interpreter calls its hook. These are the
      only program points where {!State.snapshot} is valid; replay
      capture records its snapshots there. Unset, it costs one test per
      block and nothing per instruction.
    @param retry_budget run a rollback-hardened program
      ({!Casted_detect.Scheme.Rollback}) with region recovery. The
      checkpoint-flagged entry block tops (the region heads the rollback
      pass marked with {!Casted_ir.Opcode.Cpt}) are restore points: a
      fired check or machine trap restores the latest checkpoint and
      re-executes with the (transient) fault disarmed, up to
      [retry_budget] times. A run that completes after at least one
      rollback ends {!Outcome.Recovered}; a retry chain that keeps
      failing (the fault corrupted the checkpoint itself) reports the
      original failure. Cycles and instructions thrown away by failed
      attempts are folded into the result; timeouts never retry.
      Checkpoints are lazy: an attempt only counts the ones it passes,
      and the one snapshot a rollback needs is rebuilt by re-running the
      failed attempt up to it (simulator work, not folded in; counted
      by the [sim.checkpoint_rebuild_insns] metric). A fault-free run
      therefore costs what a plain run does and returns the same
      {!Outcome.run}. Cannot combine with [on_block].
    @param timed [false] runs untimed, the mode every Monte-Carlo trial
      runs in ({!Montecarlo.trial_instrumented}); default [true]. An
      untimed run drives no cache model (no hierarchy access per memory
      operation, no hierarchy restore from [snapshot]) and no per-bundle
      operand-ready scan. It executes the same instructions with the
      same values, memory, termination, output and event counters
      ([dyn_insns], [dyn_defs], [dyn_mem], [dyn_branches], [dyn_xreads],
      [dyn_corrections]; fuel counts [dyn_insns]) as the timed run, and
      keeps register homes, which cross-cluster reads and
      {!Fault.Xcluster_flip} injection count on. Its [cycles],
      [slots_total] and [cache] fields are not measurements: each
      bundle issues at its scheduled offset without operand stalls, and
      the cache statistics read zero ({!State.untimed_hierarchy}); the
      run adds nothing to the cycle, slot, occupancy and cache
      metrics. *)
