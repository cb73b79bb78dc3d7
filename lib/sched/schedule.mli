(** Scheduled code: the output of the compiler back-end and the input of
    the simulator.

    A block schedule is a dense array of cycles; each cycle holds, per
    cluster, the instructions issued in that slot ("bundles", VLIW
    style). *)

module Insn = Casted_ir.Insn
module Func = Casted_ir.Func
module Program = Casted_ir.Program

type bundle = Insn.t array array
(** [bundle.(cluster)] = instructions issued on that cluster this cycle. *)

type block_schedule = {
  label : string;
  bundles : bundle array;
  issue_of : (int, int * int) Hashtbl.t;
      (** insn id -> (cycle, cluster) *)
}

type func_schedule = {
  func : Func.t;
  blocks : block_schedule array;  (** same order as [func.blocks] *)
}

type t = {
  program : Program.t;
  config : Casted_machine.Config.t;
  funcs : (string * func_schedule) list;
}

val block_length : block_schedule -> int

(** [find_func t name] returns the schedule of function [name]. Raises
    [Invalid_argument] naming the missing function (and the functions
    the schedule does define) when [name] is unknown — reachable only on
    malformed input, since {!Casted_sim} resolves every callee at decode
    time. *)
val find_func : t -> string -> func_schedule
val find_block : func_schedule -> string -> block_schedule

(** Render a block like the paper's Fig. 2/3 schedules: one row per
    cycle, one column per cluster. *)
val pp_block : Format.formatter -> block_schedule -> unit

val pp_func : Format.formatter -> func_schedule -> unit
