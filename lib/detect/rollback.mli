(** Region-rollback recovery pass ({!Scheme.Rollback}).

    Runs after the detection transform and partitions the entry
    function into checkpoint regions: the entry block and every target
    of a backward (or self) branch in layout order — the loop tops —
    get a {!Casted_ir.Opcode.Cpt} marker prepended to their body. The
    marker costs one issue slot and executes as a no-op; its meaning
    lives in the simulator, where region recovery
    ({!Casted_sim.Compile.run} [~retry_budget]) treats every marked block's loop top as a restore point and answers
    a fired detection check by restoring the machine state of the
    latest one (rebuilt on demand) and re-executing the region instead
    of trapping. *)

type stats = {
  regions : int;  (** region-head blocks found in the entry function *)
  checkpoints : int;  (** [Cpt] markers inserted (= [regions]) *)
}

val zero : stats
val pp_stats : Format.formatter -> stats -> unit

(** [program p] returns a deep copy of [p] with the entry function's
    region heads marked. Non-entry functions are untouched: snapshots
    are only valid at entry-function block tops with an empty call
    stack, so callee work re-executes as part of its caller's region. *)
val program : Casted_ir.Program.t -> Casted_ir.Program.t * stats
