(** The unified experiment engine.

    Every experiment in the repo — a one-off compile, a golden
    simulation, a Monte-Carlo fault campaign, a full performance sweep —
    runs through an engine rather than an inline driver loop. The
    engine owns:

    - a {!Casted_exec.Pool} of worker domains that fans out the
      embarrassingly parallel parts (sweep points, campaign trials);
    - a {!Cache} of compiled schedules so configurations shared between
      experiments compile exactly once. The compile, and the workload
      program it compiles from, are all it keeps: each campaign, sweep
      point and simulation builds the decoded
      program, stage-2 program and snapshot set it runs on, and drops
      them when it is done.

    Each job (compile, simulate, campaign, sweep) runs inside an
    [engine.*] trace span ({!Casted_obs.Trace}).

    {b Determinism contract.} Engine results never depend on the number
    of domains: sweep points are returned in grid order, and every
    campaign trial draws from an RNG seeded by
    [Rng.derive ~seed trial_index] (see {!Casted_sim.Montecarlo.trial}),
    so a run with [jobs = N] is bit-identical to [jobs = 1]. *)

type t

(** [create ~jobs ()] builds an engine over a fresh pool. [jobs]
    defaults to {!Casted_exec.Pool.default_jobs} (the [$CASTED_JOBS]
    override or the recommended domain count); raises
    [Invalid_argument] if that env knob is malformed. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int
val pool : t -> Casted_exec.Pool.t
val cache : t -> Cache.t

(** Shut the pool down, draining queued work. Idempotent. *)
val shutdown : t -> unit

(** [with_engine ?jobs f] runs [f] on a fresh engine and shuts it down
    afterwards, also on exception. *)
val with_engine : ?jobs:int -> (t -> 'a) -> 'a

(** {2 Experiments} *)

type sweep_point = {
  benchmark : string;
  scheme : Casted_detect.Scheme.t;
  issue : int;
  delay : int;  (** 0 for the single-core schemes (NOED, SCED) *)
  run : Casted_sim.Outcome.run;
}

val compile : t -> Cache.key -> Casted_detect.Pipeline.compiled

(** [simulate t spec] compiles [spec] (cached) and runs the compile's
    schedule once, fault-free, on the compiled engine
    ({!Casted_sim.Simulator.run}). *)
val simulate :
  t -> Cache.key -> Casted_detect.Pipeline.compiled * Casted_sim.Outcome.run

(** [campaign t ~trials spec] compiles [spec] (cached) and fans
    [trials] Monte-Carlo trials over the pool. Identical to the
    sequential {!Casted_sim.Montecarlo.run} with the same [seed]; the
    optional knobs ([model], [ci_halfwidth]) are forwarded to it. The
    campaign runs {!Casted_sim.Montecarlo.run} on the cached compile's
    schedule: it decodes, stage-2 compiles and (without a retry budget)
    captures its golden-run snapshot set once, shares them read-only
    across the pool's domains and drops them when it returns, so a
    grid of campaigns holds only one cell's artifacts at a time.

    A {!Casted_detect.Scheme.Rollback} spec automatically runs every
    trial with region recovery ({!Casted_sim.Compile.run}
    [~retry_budget], the same engine and the same program) under
    [retry_budget] (default {!default_retry_budget}), full-length — a
    rollback trial restores its own region checkpoints, which prefix
    replay cannot express. Pass [retry_budget] explicitly to override
    the budget (or to run any other scheme recovering).

    With [store] set the campaign becomes incremental: see
    {!campaign_stored}, of which this is the [.result] projection. *)
val campaign :
  t ->
  ?seed:int ->
  ?fuel_factor:int ->
  ?model:Casted_sim.Fault.model ->
  ?ci_halfwidth:float ->
  ?retry_budget:int ->
  ?store:Casted_store.Store.t ->
  trials:int ->
  Cache.key ->
  Casted_sim.Montecarlo.result

(** Rollback budget {!campaign} uses when the spec's scheme is
    [Rollback] and no explicit [retry_budget] is given. *)
val default_retry_budget : int

(** {2 The persistent result store} *)

(** What a store-backed campaign actually did. [simulated] trials were
    run by this call; [served] came out of the store. Both count the
    trials of [result], so they sum to fewer than the request when an
    early-stop campaign stopped. *)
type stored_campaign = {
  result : Casted_sim.Montecarlo.result;
  simulated : int;  (** trials this call actually simulated *)
  served : int;  (** trials served from banked store entries *)
}

(** [campaign_stored t ~store ~trials spec] is {!campaign} made
    incremental against an on-disk {!Casted_store.Store}:

    - {b full hit} — the store holds the cell at the identical
      identity tuple with [trials_done = trials]: the tally is served
      with {e zero} simulation, zero compiles, zero decodes.
    - {b partial hit} — banked [trials_done < trials]: simulation
      resumes at the banked trial index (the per-trial RNG derivation
      makes the union bit-identical to a cold run of [trials]) and the
      extended entry replaces the old one.
    - {b miss} — the cell is simulated and banked. A banked entry with
      {e more} trials than requested is left alone and the request
      simulated fresh (a prefix cannot be recovered from counts).

    Every simulating path banks the running tally after each finished
    64-trial chunk, so a campaign killed mid-run leaves its finished
    chunks in the store and a rerun resumes after the last of them —
    the partial-hit path, bit-identical to an uninterrupted run.

    With [ci_halfwidth] the cell is an early-stop cell
    ({!Casted_store.Store.early_stop}): its address also pins [trials]
    and the target, because both decide where the stop fires. Its entry
    is a full hit when [trials_done = trials] or when the stop rule
    already holds on the banked counts
    ({!Casted_sim.Montecarlo.early_stop_reached}); otherwise it resumes
    at its banked index, always a multiple of 64. A resumed cell whose
    golden run disagrees with the banked entry raises
    [Invalid_argument] — the identity no longer pins the simulation.

    Without [store] this is exactly {!campaign}. *)
val campaign_stored :
  t ->
  ?seed:int ->
  ?fuel_factor:int ->
  ?model:Casted_sim.Fault.model ->
  ?ci_halfwidth:float ->
  ?retry_budget:int ->
  ?store:Casted_store.Store.t ->
  trials:int ->
  Cache.key ->
  stored_campaign

(** The campaign identity string a store entry is keyed on:
    [Cache.identity spec ^ "/" ^ fault model name]. Pinned by golden
    tests alongside {!Cache.identity}. *)
val campaign_identity : Cache.key -> Casted_sim.Fault.model -> string

(** The engine coordinates of a store entry's explicit spec fields —
    the inverse of the spec a store-backed campaign banks. [None] when
    any name no longer resolves (a store written by a different casted
    version). *)
val key_of_spec :
  Casted_store.Store.spec -> (Cache.key * Casted_sim.Fault.model) option

(** [sweep t ~size ()] runs the performance grid of the paper's
    Figs. 6-8: NOED and SCED once per issue width, DCED and CASTED per
    (issue, delay). Points come back in deterministic grid order. Each
    point runs the cached compile's schedule once on the compiled
    engine ({!Casted_sim.Simulator.run}); its decoded and stage-2
    programs are built for that run and not memoized, so a sweep's
    resident memory does not grow with the grid. *)
val sweep :
  t ->
  size:Casted_workloads.Workload.size ->
  ?benchmarks:string list ->
  ?issues:int list ->
  ?delays:int list ->
  unit ->
  sweep_point list

(** {2 Instrumentation} *)

(** Result-store traffic across this engine's store-backed campaigns
    (all zero when no campaign used a store). *)
type store_counters = {
  full_hits : int;  (** cells served entirely from the store *)
  partial_hits : int;  (** cells resumed from a banked prefix *)
  store_misses : int;  (** cells simulated from scratch *)
  store_writes : int;  (** entries written (new or extended) *)
  trials_served : int;  (** trials that needed no simulation *)
  trials_simulated : int;  (** trials actually run by store campaigns *)
}

val store_counters : t -> store_counters
