(** Monte-Carlo fault-injection campaigns (paper §IV-C, generalised).

    A campaign first executes the golden (fault-free) run to collect
    the reference output and the per-model injection populations, then
    runs up to [trials] faulty executions under one {!Fault.model},
    classifying each into the paper's five outcome categories — plus
    [Recovered] for recovery schemes (TMR voting, region rollback)
    where a fault fired a correction or rollback and the run still
    produced the golden output.

    Campaigns are statistically rigorous and crash-proof:
    - every class rate carries a 95% Wilson score interval
      ({!interval}, printed by {!pp});
    - an optional sequential early stop ends the campaign once the
      detected-rate interval is narrower than a target half-width;
    - a [bank] hook receives the partial tally after every finished
      chunk and a [prior] tally resumes a campaign bit-identically
      after a kill — the result store persists both;
    - a trial whose simulation raises is classified and counted
      ({!classify_result}), never allowed to kill the campaign. *)

type classification =
  | Benign  (** golden output, no correction ever fired *)
  | Detected  (** a check trapped (detection-only schemes) *)
  | Exception  (** machine trap, or the simulator itself raised *)
  | Data_corrupt  (** wrong exit code or output bytes (SDC) *)
  | Timeout  (** fuel budget exhausted *)
  | Recovered
      (** golden output, but only because the scheme actively repaired
          the fault: a TMR vote corrected a corrupted copy
          ([dyn_corrections > 0]), or a rollback retry chain ended in
          {!Outcome.Recovered} *)

val all_classes : classification list
val class_name : classification -> string

(** How golden-prefix replay fared, over the trials the reporting
    process ran itself (a resumed campaign's earlier trials left no
    per-trial record in the banked tally — the tallies still cover
    them, these statistics do not). *)
type replay_stats = {
  snapshots : int;  (** snapshots captured on the golden run *)
  snapshot_bytes : int;  (** approximate heap footprint of the set *)
  replayed : int;  (** trials started from a snapshot *)
  full_runs : int;  (** trials that fell back to full execution *)
  converged : int;
      (** trials (replayed or full) that stopped early because their
          state re-converged with the golden run's; at most
          [replayed + full_runs] *)
  mean_suffix : float;
      (** mean fraction of the golden run actually executed per trial,
          in [0, 1]: a trial counts its own instructions from its start
          snapshot to its convergence point, check, trap or end, capped
          at the golden length ([1.0] = every trial ran full-length) *)
}

type result = {
  trials : int;  (** trials actually run (≤ requested with early stop) *)
  benign : int;
  detected : int;
  exceptions : int;
  corrupt : int;
  timeouts : int;
  recovered : int;
  golden_cycles : int;
  golden_dyn : int;
  population : int;  (** size of the campaign model's injection pool *)
  model : Fault.model;
  replay : replay_stats option;
      (** [Some] for a campaign this process ran ({!run}: every
          campaign replays, rollback campaigns included); [None] for a
          tally rebuilt from counts ({!of_counts}) *)
}

val count : result -> classification -> int

(** Percentage of trials in a class. *)
val percent : result -> classification -> float

(** True when the fault model has no injection sites in this cell
    ([population] = 0) — e.g. a mem campaign over a program with no
    memory traffic, or an xcluster campaign on a single-cluster
    machine. Such a result carries zero trials by construction (the
    campaign clamps the trial count rather than raising out of
    {!Fault.random}); callers should report the cell as skipped, not
    as a 0%-coverage data point. *)
val inapplicable : result -> bool

(** 95% (or [z]-score) Wilson interval on a class rate, in percent. *)
val interval : ?z:float -> result -> classification -> float * float

(** Half the Wilson interval width, in percentage points. *)
val halfwidth : ?z:float -> result -> classification -> float

(** Fraction of trials (0..1) the scheme actively repaired. *)
val recovered_fraction : result -> float

(** Mean Work To Failure relative to an unprotected baseline:
    [1 / (overhead × SDC-fraction)] where overhead is this campaign's
    golden cycle count over [baseline_cycles] (the NOED golden run of
    the same workload and issue width). [infinity] when the campaign
    saw no corrupt trial at this sample size. *)
val mwtf : baseline_cycles:int -> result -> float

(** Classify one faulty run against the golden run. *)
val classify : golden:Outcome.run -> Outcome.run -> classification

(** Like {!classify}, for a trial that may have raised: an [Error] is
    an [Exception] outcome — tallied, not propagated. *)
val classify_result :
  golden:Outcome.run -> (Outcome.run, exn) Stdlib.result -> classification

(** The golden (fault-free) reference: its run, the per-model injection
    populations, the faulty-run fuel budget, and (for a replaying
    campaign) the snapshot set trials start from. *)
type golden = {
  run : Outcome.run;
  pop : Fault.population;  (** dynamic event populations *)
  fuel : int;  (** [fuel_factor * dyn_insns], the paper's time-out *)
  replay : Replay.t option;
      (** golden-run snapshots for prefix replay, shared read-only *)
}

(** The {!Fault.population} counted by a finished run. *)
val population_of_run : Outcome.run -> Fault.population

(** Execute the golden run of a decoded program on the compiled engine.
    Without [replay_set] the golden carries no snapshot set, so every
    {!trial} on it runs full-length: the reference a replaying campaign
    must reproduce. Raises [Invalid_argument] if the run does not exit
    cleanly or [fuel_factor] (default 10) is below 1.

    @param replay_set use this captured set ({!Replay.capture}): its
      golden run is the reference (nothing is run here) and trials
      start from its snapshots. A set for {!trial}s with a retry budget
      must hold only checkpoint snapshots ([Replay.capture ~at]). *)
val golden_decoded : ?fuel_factor:int -> ?replay_set:Replay.t -> Decode.t -> golden

(** [trial ~golden ~seed ~index compiled] runs faulty trial [index] of
    a campaign with the given campaign [seed] and fault [model]
    (default {!Fault.Reg_bit}) on the compiled program. The trial's
    fault is drawn from an RNG seeded by [Rng.derive ~seed index], so
    the result depends only on [(seed, index, model)] — never on
    execution order. This is what lets the engine fan trials over
    domains while staying bit-identical to a sequential campaign. When
    [golden] carries a replay set, the trial starts from the latest
    snapshot preceding its fault's trigger event (bit-identical to the
    full run), and, without a retry budget, it stops at the first later
    golden snapshot whose architectural state it matches once the fault
    has fired ({!State.matches}): the rest of the run is the golden suffix, so
    the trial is [Recovered] if a vote corrected a copy and [Benign]
    otherwise — the class the full run would reach. Such a trial skips
    [Runtime.finish], so the [sim.runs]/[sim.insns] metrics do not
    count it; {!run}'s [sim.converged] does. A model whose population is empty
    in this configuration yields [Benign]; a simulation that raises
    yields [Exception]. The trial runs untimed ({!Compile.run}
    [~timed:false]): its class reads no cycle, so it is the timed run's
    class, and a run it finishes adds nothing to the [sim.cycles],
    [sim.slots_offered], [sim.occupancy] and [cache.*] metrics.

    @param retry_budget run the trial with region recovery
      ([Compile.run ~retry_budget]) — the rollback-scheme campaign path.
      With a replay set it starts from the latest checkpoint snapshot
      preceding its fault, with no convergence watcher; the golden's
      snapshots must all sit at {!Compile.checkpoint} blocks, else
      [Invalid_argument]. *)
val trial :
  ?retry_budget:int ->
  ?model:Fault.model ->
  golden:golden ->
  seed:int ->
  index:int ->
  Compile.t ->
  classification

(** Fold per-trial classifications into a campaign result. *)
val tally :
  ?model:Fault.model -> golden:golden -> classification array -> result

(** Per-class counts in the order the result store persists and
    [prior] takes: benign, detected, exception, data-corrupt, timeout,
    recovered. [Array.fold_left (+) 0 (counts r) = r.trials] always. *)
val counts : result -> int array

(** Rebuild a {!result} from persisted counts ({!counts} order) and
    the golden-run scalars — the result store's hit path, which serves
    a finished tally without re-running anything, golden run included.
    [trials] is the sum of [counts]; [replay] is [None]. Raises
    [Invalid_argument] on a wrong-length or negative counts array. *)
val of_counts :
  ?model:Fault.model ->
  golden_cycles:int ->
  golden_dyn:int ->
  population:int ->
  int array ->
  result

(** Campaigns advance in chunks of this many trials (64), on a grid
    anchored at trial 0; early-stop checks and [bank] calls happen only
    at chunk boundaries (absolute trial indices), which is why neither
    the pool size nor a kill point can change a campaign's result. *)
val chunk_trials : int

(** The sequential stop rule of [ci_halfwidth]: true once [r]'s
    detected-rate 95% Wilson half-width, in percentage points, is at or
    below the target. A campaign checks it at every chunk boundary, so
    a banked prefix on which it holds is where the campaign stopped.
    Raises [Invalid_argument] on a target that is not positive and
    finite. *)
val early_stop_reached : ci_halfwidth:float -> result -> bool

(** [run ~seed ~trials schedule] runs the campaign. The fuel of each
    faulty run is [fuel_factor] (default 10) times the golden dynamic
    instruction count, reproducing the simulator time-out of the paper;
    a [fuel_factor] below 1 raises [Invalid_argument].

    The campaign decodes and stage-2 compiles [schedule] once
    ({!Decode.of_schedule}, {!Compile.of_decoded}); every golden run
    and trial executes on that one immutable program, shared read-only
    across pool domains. Every campaign replays: it captures snapshots
    on an untimed golden run while the timed golden run (the result's
    cycles) runs as a pool task beside it, and raises [Failure] if the
    two disagree on termination, exit code, output or an event count.
    Each trial starts from the latest snapshot preceding its fault's
    trigger event and, without a retry budget, stops once it
    re-converges with the golden run ({!trial}). The tally is the one
    full-length trials reach, for every fault model at any pool size.
    Chunks are streamed: the next one is submitted before the current
    one is awaited, and a chunk still in flight when the campaign stops
    or raises is awaited and dropped. The program and the snapshot set
    live only as long as the call: nothing outlives the campaign but
    its result, and no pool task outlives the call.

    @param pool fan trials over these domains; the per-trial seed
      derivation makes the result identical field-for-field to the
      sequential run. Without it the campaign runs on a one-executor
      pool of its own.
    @param model the fault model to draw every trial from
      (default {!Fault.Reg_bit}, the paper's model).
    @param ci_halfwidth stop early once the detected-rate 95% Wilson
      half-width (percentage points) is at or below this target
      ({!early_stop_reached}). Must be positive and finite, else
      [Invalid_argument].
    @param retry_budget run every trial with region recovery under
      this rollback budget (the rollback-scheme campaign path). Such a
      campaign captures snapshots only at checkpoint-flagged block tops,
      and each trial resumes region recovery from one of them.
    @param prior [(done, counts)]: resume from a persisted tally —
      start at trial index [done] with per-class [counts] ({!counts}
      order) pre-seeded. This is the result store's incremental and
      crash-resume path: a cell with [done] trials banked simulates
      only [done, trials), bit-identical to the uninterrupted run.
      [counts] must sum to [done]. A [done] off the grid (a cell banked
      by a shorter request) first runs to the next grid point, so every
      later chunk stays on the grid. With
      [ci_halfwidth], [done] must be a multiple of {!chunk_trials} (or
      [trials]) so the stop rule is checked at the same points.
    @param bank called after every finished chunk except the last
      with the next trial index (a grid point) and the partial tally
      so far — the result store's partial-banking hook: a SIGKILLed
      campaign's completed chunks survive and are served on restart.
      The final tally is returned normally, not banked. *)
val run :
  ?pool:Casted_exec.Pool.t ->
  ?seed:int ->
  ?fuel_factor:int ->
  ?model:Fault.model ->
  ?ci_halfwidth:float ->
  ?retry_budget:int ->
  ?prior:int * int array ->
  ?bank:(next:int -> result -> unit) ->
  trials:int ->
  Casted_sched.Schedule.t ->
  result

(** Render the tally with a 95% Wilson interval on every class rate. *)
val pp : Format.formatter -> result -> unit

(** One-line rendering of a campaign's replay statistics. *)
val pp_replay : Format.formatter -> replay_stats -> unit
