(** Per-block liveness analysis (backward may-analysis).

    Used by the validator and the tests to establish that the detection
    pass's register renaming never makes a shadow register interfere with
    the original stream. *)

type t = {
  cfg : Cfg.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
}

val compute : Cfg.t -> t

(** [live_before t block_index] walks the block backwards and returns the
    set of live registers immediately before each instruction, in
    instruction order. *)
val live_before : t -> int -> Reg.Set.t list
