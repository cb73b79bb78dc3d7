(** Block-local common-subexpression elimination (value numbering).

    An instruction recomputing an expression already available in a
    register is rewritten into a move from that register. Loads
    participate until the next store or call (the conservative memory
    model of the scheduler); trapping instructions (division) and
    side-effecting instructions never participate.

    When [preserve_detection] is set, an expression computed by
    detection code (replicas, shadow copies) is never merged with one
    computed by original code, and vice versa. Without it, CSE merges a
    replicated instruction with its original — e.g. two [movi 5] — after
    which the shadow register is a plain copy of the original, every
    check compares a value against itself, and the error detection is
    silently destroyed. This is precisely why the paper turns the late
    CSE pass off after the CASTED passes (§IV-A); the late CSE/DCE
    ablation of [casted repro] demonstrates the collapse. *)

val run : preserve_detection:bool -> Casted_ir.Func.t -> int
