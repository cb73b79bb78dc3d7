(** Cross-scheme differential oracle.

    Fault-free, every scheme is supposed to be a semantics-preserving
    recompilation: NOED, SCED, DCED and CASTED must produce the same
    architectural outcome — exit code, output-region bytes, and the
    whole final memory image — on the same workload. Any divergence is
    a compiler or simulator bug, RepTFD-style: the reference execution
    is the oracle.

    Each cell additionally holds every production execution path to
    the reference interpreter ([Simulator.reference]) on the cell's own
    schedule, field for field — the reference is one side of every
    comparison: [Simulator.run] (decode, stage-2 compile,
    closure-threaded run), a fault-free run under region recovery, the
    golden run of a dense {!Casted_sim.Replay.capture} on the compiled
    engine, and the run resumed from {e every} snapshot of that capture
    on both engines (golden-prefix replay must lose no piece of the
    machine state, and the compiled engine's block hook must fire where
    the reference's does). *)

type cell = {
  scheme : Casted_detect.Scheme.t;
  issue_width : int;
  delay : int;
}

val pp_cell : Format.formatter -> cell -> unit

(** The default example matrix: NOED/SCED once per issue width
    (single-core schemes do not see the delay axis), DCED/CASTED per
    (issue width, delay) point. *)
val cells : ?issue_widths:int list -> ?delays:int list -> unit -> cell list

type divergence = {
  cell : cell;
  field : string;  (** what differed, e.g. ["output"] or ["cycles"] *)
  reference : string;
  got : string;
}

val pp_divergence : Format.formatter -> divergence -> unit
val divergence_to_json : divergence -> Casted_obs.Json.t

(** [reference ?options ?fuel program] compiles the program under NOED
    at issue width 1 and returns its fault-free run on the reference
    interpreter (with its memory digest). *)
val reference :
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  Casted_ir.Program.t ->
  Casted_sim.Outcome.run

(** [check_cell ?options ?fuel ~reference program cell] compiles
    [program] for [cell] once, lints that schedule ({!Lint.schedule}),
    runs it fault-free, and returns the lint diagnostics with every
    divergence: the production run's architectural outcome vs the
    cross-scheme [reference], plus the reference-vs-production engine
    cross-check on the cell's own schedule. Divergence fields name the
    pair, reference side first (e.g. ["reference vs run: cycles"]). *)
val check_cell :
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  reference:Casted_sim.Outcome.run ->
  Casted_ir.Program.t ->
  cell ->
  Diag.t list * divergence list

(** [differential ?pool ?issue_widths ?delays ?options ?fuel program]
    runs the whole matrix, fanning cells over [pool] when given. The
    result preserves matrix order. *)
val differential :
  ?pool:Casted_exec.Pool.t ->
  ?issue_widths:int list ->
  ?delays:int list ->
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  Casted_ir.Program.t ->
  divergence list
