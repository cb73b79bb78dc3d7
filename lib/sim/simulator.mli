(** Cycle-accurate lockstep VLIW simulator.

    Executes a scheduled program (the output of
    {!Casted_detect.Pipeline.compile}) bundle by bundle. All clusters
    issue in lockstep: a bundle's issue time is the maximum over its
    instructions' operand-ready times, where an operand produced on a
    different cluster arrives [delay] cycles late (the paper's
    inter-cluster register-file read). Dynamic stalls come from cache
    misses (Table-I hierarchy) and cross-cluster reads not visible to the
    static scheduler (block boundaries, call returns).

    Bundle semantics are VLIW-parallel: all operands are read before any
    write of the same bundle lands.

    Faults: when a {!Fault.t} is supplied, one dynamic event is
    corrupted according to the fault's model (§IV-C, generalised):
    register-slot bit flips and bursts right after write-back, a
    cache-line bit after the n-th memory access, an inverted direction
    on the n-th conditional branch, or a corrupted value on the n-th
    cross-cluster operand read. The run also counts each model's
    dynamic population ({!Outcome.run} [dyn_defs], [dyn_mem],
    [dyn_branches], [dyn_xreads]), which is how a campaign's golden run
    sizes the injection pool. *)

(** [run schedule] executes the program to termination.

    @param fault optional single transient fault to inject.
    @param fuel dynamic-instruction budget; exceeding it terminates the
      run with {!Outcome.Timeout} (the paper's simulator time-out).
    @param perfect_cache every access hits in L1 (ablation).
    @param profile per-block visit/cycle profile, filled during the run.
    @param with_mem_digest fill {!Outcome.run} [mem_digest] with a
      digest of the final memory image (default false: campaigns never
      pay for it; the differential oracle turns it on to compare whole
      memory images across schemes). *)
val run :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  Casted_sched.Schedule.t ->
  Outcome.run

(** [run_decoded decoded] executes a pre-decoded program
    ({!Decode.of_schedule}). Bit-identical to [run] on the source
    schedule — same {!Outcome.run} field for field — but skips the
    per-run decode work: [run sched] is exactly
    [run_decoded (Decode.of_schedule sched)]. Monte-Carlo campaigns
    decode once and call this per trial; the decoded program is
    read-only and safe to share across pool domains. Each executor
    domain also keeps a private scratch memory arena that is restored
    from [decoded.image] with one blit per run.

    @param on_block called at every entry-function block-loop top where
      the call stack is empty (depth 1) with the machine state, the
      entry register file and the block index about to execute — the
      only program points where {!State.snapshot} is valid. The golden
      pass of {!Replay.capture} uses it to record snapshots; plain runs
      leave it unset and pay nothing. *)
val run_decoded :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  ?on_block:(State.t -> State.regfile -> int -> unit) ->
  Decode.t ->
  Outcome.run

(** [run_replayed ~snapshot decoded] restores [snapshot] (captured by a
    golden pass over the same decoded program) and executes only the
    remaining suffix. Bit-identical to
    [run_decoded ?fault ?fuel decoded] whenever the snapshot precedes
    the fault's trigger event (see {!Replay.find}) and the snapshot's
    perfect-cache mode matches the run's: the prefix a full run would
    execute before the trigger is exactly the golden prefix the
    snapshot captured. Counters and cycle counts resume from the
    snapshot, so every {!Outcome.run} field reports whole-run totals. *)
val run_replayed :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  snapshot:State.snapshot ->
  Decode.t ->
  Outcome.run

(** [run_recovering ~retry_budget decoded] executes a rollback-hardened
    program ({!Casted_detect.Scheme.Rollback}). The checkpoint-flagged
    block tops of the entry function (the region boundaries the
    rollback pass marked with {!Casted_ir.Opcode.Cpt}) are restore
    points: a fired check or machine trap no longer ends the run — the
    machine state at the latest checkpoint is restored and the suffix
    re-executed with the (transient) fault disarmed, up to
    [retry_budget] times. A run that completes (halts, or its entry
    function returns) after at least one rollback terminates with
    {!Outcome.Recovered}; a retry chain that keeps failing (the fault
    corrupted the checkpoint itself) exhausts the budget and reports
    the original failure. Cycles and dynamic instructions thrown away
    by failed attempts are folded into the final {!Outcome.run}, so
    recovery pays its re-execution cost. Timeouts never retry: the
    fuel budget is global.

    Checkpoints are lazy: a running attempt only counts the checkpoints
    it passes, and the one {!State.snapshot} a rollback needs is rebuilt
    by deterministically re-running the failed attempt up to it. The
    rebuilt snapshot is the one an eager snapshot would have taken; its
    re-executed instructions are simulator work, not folded into the
    run (they are counted by the [sim.checkpoint_rebuild_insns]
    metric). A fault-free run therefore costs what [run_decoded] does,
    and returns the same {!Outcome.run} field for field. *)
val run_recovering :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  retry_budget:int ->
  Decode.t ->
  Outcome.run

(** [run_compiled compiled] executes a stage-2-compiled program
    ({!Compile.of_decoded}) on the closure-threaded engine.
    Bit-identical to [run_decoded] on the underlying decoded program —
    same {!Outcome.run} field for field — but with every per-instruction
    dispatch decision resolved at compile time; the verify oracle's
    four-way cross-check holds the engines to that contract. Campaigns
    compile once (memoized in [Engine.Cache]) and run trials on this
    path by default. *)
val run_compiled :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  Compile.t ->
  Outcome.run

(** [run_compiled_replayed ~snapshot compiled] is {!run_replayed} on the
    compiled engine: restore a golden-prefix snapshot (snapshots are
    engine independent) and execute only the suffix as threaded code. *)
val run_compiled_replayed :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  snapshot:State.snapshot ->
  Compile.t ->
  Outcome.run
