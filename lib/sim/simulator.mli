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
    sizes the injection pool.

    Two engines implement these semantics. Every [run*] entry point
    executes on the closure-threaded engine ({!Compile}). The decoded
    interpreter survives as {!reference}: the one direct reading of the
    ISA that the verify oracle, the fuzzer and the golden-fixture test
    hold the compiled engine to, field for field. *)

(** [run schedule] decodes and executes the program to termination on
    the compiled engine: exactly [run_decoded (Decode.of_schedule
    schedule)].

    @param fault optional single transient fault to inject.
    @param fuel dynamic-instruction budget; exceeding it terminates the
      run with {!Outcome.Timeout} (the paper's simulator time-out).
    @param with_mem_digest fill {!Outcome.run} [mem_digest] with a
      digest of the final memory image (default false: campaigns never
      pay for it; the differential oracle turns it on to compare whole
      memory images across schemes). *)
val run :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  Casted_sched.Schedule.t ->
  Outcome.run

(** [run_decoded decoded] executes a pre-decoded program
    ({!Decode.of_schedule}): one stage-2 compile ({!Compile.of_decoded},
    a small fraction of a run) and one {!Compile.run}. Callers running
    the same program many times compile it once and use
    {!run_compiled}. *)
val run_decoded :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  Decode.t ->
  Outcome.run

(** [run_recovering ~retry_budget decoded] executes a rollback-hardened
    program ({!Casted_detect.Scheme.Rollback}) with region recovery on
    the compiled engine: [Compile.run ~retry_budget] over
    [Compile.of_decoded decoded] — see {!Compile.run} for the rollback
    contract. A fault-free run returns the same {!Outcome.run} as
    {!run_decoded}, field for field. *)
val run_recovering :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  retry_budget:int ->
  Decode.t ->
  Outcome.run

(** [run_compiled compiled] is {!Compile.run} on a stage-2-compiled
    program ({!Compile.of_decoded}). *)
val run_compiled :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  Compile.t ->
  Outcome.run

(** [run_compiled_replayed ~snapshot compiled] restores a golden-prefix
    snapshot and executes only the suffix ([Compile.run ~snapshot]).
    Bit-identical to the full run whenever the snapshot precedes the
    fault's trigger event (see {!Replay.find}). *)
val run_compiled_replayed :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  snapshot:State.snapshot ->
  Compile.t ->
  Outcome.run

(** [reference decoded] executes a pre-decoded program on the reference
    interpreter. Same {!Outcome.run} as the compiled engine, field for
    field, at about half its speed: only checks, the perfect-cache
    ablation and per-block profiles run here.

    @param perfect_cache every access hits in L1 (ablation).
    @param profile per-block visit/cycle profile, filled during the run.
    @param on_block called at every entry-function block-loop top where
      the call stack is empty (depth 1) with the machine state, the
      entry register file and the block index about to execute — the
      program points where the compiled engine fires its own hook.
    @param snapshot resume from this golden-prefix snapshot and execute
      only the suffix (the snapshot's own perfect-cache mode applies). *)
val reference :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  ?on_block:(State.t -> State.regfile -> int -> unit) ->
  ?snapshot:State.snapshot ->
  Decode.t ->
  Outcome.run
