(** Tuning knobs of the error-detection pass.

    The defaults implement the paper's Algorithm 1 exactly; the flags
    exist for the ablation benchmarks (e.g. quantifying the cost of
    checking store operands). *)

(** How much of the program to replicate:
    - [Full]: everything replicable (the paper's Algorithm 1);
    - [Store_slice]: only the backward slice of store operands
      (Shoestring-style partial redundancy, see {!Selective}). *)
type scope = Full | Store_slice

type t = {
  check_stores : bool;  (** check address and value operands of stores *)
  check_branches : bool;  (** check predicate operands of branches *)
  check_calls : bool;  (** check call arguments and returned values *)
  shadow_params : bool;
      (** copy incoming parameters into the shadow register space at
          function entry *)
  scope : scope;
}

val default : t

(** [wants_check t insn]: [t] asks for [insn]'s operands to be protected
    — stores under [check_stores], conditional branches under
    [check_branches], calls, returns and halts under [check_calls]. The
    SWIFT checks of {!Transform} and the TMR votes of {!Recover} both
    read the flags through this one predicate. *)
val wants_check : t -> Casted_ir.Insn.t -> bool
