(** Compiled-schedule cache.

    Sweeps and Monte-Carlo campaigns repeatedly compile the same
    [(workload, size, scheme, issue width, delay, options)] point — a
    fig-9 campaign and a perf sweep share every configuration, and the
    CLI recompiles on every invocation of a subcommand. The cache keys
    a {!Casted_detect.Pipeline.compile} result on the full
    configuration tuple so each point is compiled exactly once per
    engine, and repeated lookups return the {e physically equal}
    compile.

    The library memoizes two artifacts, both for the cache's lifetime:
    the compile, and the workload program it compiles from. The program
    is keyed by [(workload, size)] alone ({!program}), so a sweep's 280
    configurations over seven benchmarks build seven programs, not 280
    (a perf-size build costs about 0.76 ms, a {!Casted_ir.Clone.program}
    of it 0.012 ms). Sharing one build is safe because the pipeline
    never writes its input: every pass that rewrites the program
    ([Transform], [Recover], [Dme], [Rollback], the NOED path and
    [Opt.Pass]) clones it first, so the build stays equal to a fresh
    one and every compile is the one a fresh build would give (pinned
    by a tier-1 test over every workload and scheme, with and without
    the pipeline's [optimize] pre-pass).

    Everything derived from a compile lives only as long as the run that
    built it: a campaign ({!Casted_sim.Montecarlo.run}) decodes,
    stage-2 compiles and captures its own snapshot set and drops all
    three when it returns, and a sweep point or simulation decodes for
    its one run. So the engine's resident memory grows with the number
    of compiled configurations and built programs, not with the
    snapshot sets of every campaign it ran.

    The {!decoded}, {!compiled} and {!replay} tables below are read by
    no path in the library or the CLI. They remain only because the
    benchmark harness ([perfbench/harness.ml]) reads them and their
    {!stats} fields; they go once the harness runs campaigns through
    the engine.

    All five tables share one memo discipline and are domain-safe:
    lookups and inserts are serialised by the table's mutex, while
    builds run outside it so distinct keys build in parallel. If two
    domains race to build the same key, the first insert wins, both
    receive the same value, and the loser's lookup counts as a hit — so
    a table's misses are the builds it kept, and hits plus misses are
    its lookups. Only compiles feed {!stats}' [hits] and [misses]:
    program builds are counted by [builds] alone. *)

type key = {
  workload : string;  (** registry name, e.g. ["cjpeg"] *)
  size : Casted_workloads.Workload.size;
  scheme : Casted_detect.Scheme.t;
  issue_width : int;
  delay : int;
  options : Casted_detect.Options.t;
  bug_options : Casted_sched.Bug.options option;
      (** [None] = the scheme's default assignment options *)
}

(** Build a key with the usual defaults ([Options.default], no BUG
    override). *)
val key :
  ?options:Casted_detect.Options.t ->
  ?bug_options:Casted_sched.Bug.options ->
  workload:string ->
  size:Casted_workloads.Workload.size ->
  scheme:Casted_detect.Scheme.t ->
  issue_width:int ->
  delay:int ->
  unit ->
  key

val pp_key : Format.formatter -> key -> unit

(** One-line stable identity for [key] — what the on-disk result
    store hashes into entry addresses, so a tally is never served to a
    different (workload, scheme, config) point. The rendering is pinned
    by golden unit tests and must never change shape silently: doing so
    orphans every persisted store entry. Non-default
    options are folded in as an FNV-1a hash of an explicit canonical
    rendering (stable across OCaml releases, unlike [Hashtbl.hash]). *)
val identity : key -> string

type t

val create : unit -> t

(** [program t key] returns the workload program [key] compiles from,
    building it on the first use of [key]'s [(workload, size)]; every
    key of that pair gets the physically equal program. Callers must
    not mutate it. Raises [Invalid_argument] for an unknown workload
    name. *)
val program : t -> key -> Casted_ir.Program.t

(** [compile t key] returns the cached compile for [key], running the
    full pipeline over {!program} on first use. Raises
    [Invalid_argument] for an unknown workload name. *)
val compile : t -> key -> Casted_detect.Pipeline.compiled

(** [decoded t key] returns the memoized pre-decoded execution form
    ({!Casted_sim.Decode.of_schedule}) of [key]'s compiled schedule,
    compiling and decoding on first use. Repeated lookups return the
    {e physically equal} decoded program. Benchmark harness only. *)
val decoded : t -> key -> Casted_sim.Decode.t

(** [replay t key] returns the memoized golden-run snapshot set
    ({!Casted_sim.Replay.capture} of a run of {!compiled}) for [key],
    capturing it on first use. The set is immutable; repeated lookups
    return the physically equal value. Benchmark harness only. *)
val replay : t -> key -> Casted_sim.Replay.t

(** [compiled t key] returns the memoized stage-2 compiled program
    ({!Casted_sim.Compile.of_decoded} over {!decoded}) for [key],
    compiling it on first use. The program is immutable (per-run state
    lives in the run's own context); repeated lookups return the
    physically equal value. Benchmark harness only. *)
val compiled : t -> key -> Casted_sim.Compile.t

type stats = {
  hits : int;  (** {!compile} lookups served from the table *)
  misses : int;  (** compiles kept in the table *)
  entries : int;
  builds : int;  (** workload programs kept, one per [(workload, size)] *)
  decoded_hits : int;  (** {!decoded} lookups served from the table *)
  decoded_misses : int;  (** decodes kept in the table *)
  decoded_entries : int;
  replay_hits : int;  (** {!replay} lookups served from the table *)
  replay_misses : int;  (** snapshot captures kept in the table *)
  replay_entries : int;
  compiled_hits : int;  (** {!compiled} lookups served from the table *)
  compiled_misses : int;  (** stage-2 compiles kept in the table *)
  compiled_entries : int;
}

val stats : t -> stats
