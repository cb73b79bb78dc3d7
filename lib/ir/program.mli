(** Whole programs.

    A program is a set of functions plus a flat byte-addressable memory
    arena. [data] seeds the arena before execution; the [output] region is
    the part of memory the fault-injection harness compares against the
    golden run to classify silent data corruption, mirroring the paper's
    comparison of program outputs. *)

type t = {
  funcs : Func.t list;
  entry : string;  (** name of the entry function (no parameters) *)
  mem_size : int;  (** arena size in bytes *)
  data : (int * string) list;  (** (address, bytes) initial memory image *)
  output_base : int;
  output_len : int;
  shadow_base : int option;
      (** [Some base] when the upper half of the arena, [base, mem_size),
          is a decorrelated replica image (the DME pass): architectural
          comparisons — the whole-memory digest in particular — must
          cover only [0, base), exactly the arena an unhardened build of
          the same program would have. [None] for every other program. *)
}

val make :
  funcs:Func.t list ->
  entry:string ->
  ?mem_size:int ->
  ?data:(int * string) list ->
  ?output_base:int ->
  ?output_len:int ->
  ?shadow_base:int ->
  unit ->
  t

val find_func : t -> string -> Func.t
val entry_func : t -> Func.t
val num_insns : t -> int

val pp : Format.formatter -> t -> unit
