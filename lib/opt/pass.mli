(** Pass manager for the scalar optimisation pipeline.

    The paper's pipeline (Fig. 5) runs the scalar optimisers before the
    CASTED passes and explicitly disables the {e late} CSE and DCE that
    would otherwise run after them, because those passes delete the
    replicated code (§IV-A). Accordingly:

    - run [standard] on the input program {e before}
      {!Casted_detect.Transform.program} — always safe;
    - running passes on a {e hardened} program requires
      [preserve_detection:true] to keep the redundant stream intact; the
      unsafe mode exists to reproduce the paper's observation (see the
      late CSE/DCE ablation in [Casted_report.Repro], printed by
      [casted repro]). *)

type t = {
  name : string;
  run : preserve_detection:bool -> Casted_ir.Func.t -> int;
      (** returns a change count (instructions rewritten/removed or
          blocks eliminated, pass-specific) *)
}

val constfold : t
val copyprop : t
val cse : t
val dce : t
val simplify_cfg : t

(** [constfold; copyprop; cse; dce; simplify_cfg] *)
val standard : t list

(** Run a pass list over every function of a (cloned) program.
    Unprotected library functions are optimised too — they are ordinary
    code. Returns the optimised program and per-pass change counts. *)
val run_program :
  ?preserve_detection:bool ->
  t list ->
  Casted_ir.Program.t ->
  Casted_ir.Program.t * (string * int) list

(** Iterate [run_program] until no pass reports a change (at most
    [max_rounds], default 10). *)
val run_to_fixpoint :
  ?preserve_detection:bool ->
  ?max_rounds:int ->
  t list ->
  Casted_ir.Program.t ->
  Casted_ir.Program.t * int
