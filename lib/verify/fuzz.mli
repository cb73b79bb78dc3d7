(** Pipeline fuzzer: seeded random programs through compile → lint →
    differential oracle.

    Programs are generated from [Rng.derive]-split per-index seeds, so
    program [i] of a campaign is the same bytes-for-bytes regardless of
    [--jobs] — a failing index reported by CI replays locally with
    [casted fuzz --seed S --program i].

    A program {e fails} when any matrix cell produces a lint diagnostic
    ({!Lint.schedule}) or an oracle divergence ({!Oracle.check_cell}).
    Failures are shrunk greedily — statement deletion, [if]/loop body
    flattening, loop-count reduction — to a local minimum that still
    fails, and reported with the shrunk program's assembly so the
    reproducer is a standalone [.casted] file. *)

(** One statement of the generator's structured recipe language. *)
type stmt

(** [recipe ~seed index] is the deterministic recipe for program
    [index] of campaign [seed]. *)
val recipe : seed:int -> int -> stmt list

(** Render a recipe through the {!Casted_ir.Builder} into a runnable
    program (fixed aligned memory slots, observability epilogue, a
    protected callee exercising parameter shadowing and call checks). *)
val emit_program : stmt list -> Casted_ir.Program.t

(** [check_program program] validates, compiles, lints and
    differentially runs [program] over [cells] (default: all seven
    schemes over a small spread of issue widths and delays); empty
    lists mean the pipeline is clean on it. *)
val check_program :
  ?cells:Oracle.cell list ->
  ?fuel:int ->
  Casted_ir.Program.t ->
  (Oracle.cell * Diag.t) list * Oracle.divergence list

type failure = {
  index : int;  (** failing program index within the campaign *)
  seed : int;  (** campaign seed — replay coordinates *)
  asm : string;  (** shrunk program, printable as a [.casted] file *)
  diags : (Oracle.cell * Diag.t) list;  (** lint hits on the shrunk program *)
  divergences : Oracle.divergence list;  (** oracle hits on the shrunk program *)
  shrink_steps : int;  (** how many shrinking steps reached the minimum *)
}

val pp_failure : Format.formatter -> failure -> unit

(** [check_index ~seed index] generates, checks and — on failure —
    shrinks program [index]. [None] means clean. *)
val check_index :
  ?cells:Oracle.cell list ->
  ?fuel:int ->
  seed:int ->
  int ->
  failure option

(** [run ~programs ~seed ()] fuzzes [programs] programs, fanning the
    indices over [pool] when given, and returns the lowest-index
    failure, shrunk. *)
val run :
  ?pool:Casted_exec.Pool.t ->
  ?cells:Oracle.cell list ->
  ?fuel:int ->
  programs:int ->
  seed:int ->
  unit ->
  failure option
