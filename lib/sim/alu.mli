(** Pure integer/float operation semantics.

    Factored out of the simulator so the unit tests can check each
    operation against OCaml's own arithmetic independently of timing. *)

(** [int_binop op a b]. Raises {!Trap.Trap} [Div_by_zero] for division or
    remainder by zero. [Int64.min_int / -1L] is defined to wrap to
    [Int64.min_int]. Shift amounts are taken modulo 64. *)
val int_binop : Casted_ir.Opcode.t -> int64 -> int64 -> int64

(** [int_immop op a imm] for the register-immediate forms. *)
val int_immop : Casted_ir.Opcode.t -> int64 -> int64 -> int64

val float_binop : Casted_ir.Opcode.t -> float -> float -> float
