(** Imperative construction of IR functions.

    A builder accumulates instructions into a current block; emitting a
    terminator closes the block. Emit helpers allocate a fresh destination
    register unless [?dst] is supplied, and return the destination, so
    straight-line code reads like an expression tree:

    {[
      let b = Builder.create ~name:"main" () in
      let x = Builder.movi b 21L in
      let y = Builder.add b x x in
      Builder.halt b ~code:y ();
      let f = Builder.finish b
    ]} *)

type t

val create :
  name:string ->
  ?params:Reg.t list ->
  ?ret_cls:Reg.cls option ->
  ?protect:bool ->
  ?entry_label:string ->
  unit ->
  t

(** Close the builder and return the function. Raises [Invalid_argument]
    if the current block is still open (missing terminator). *)
val finish : t -> Func.t

(** {1 Registers and labels} *)

val gp : t -> Reg.t
val fp : t -> Reg.t
val pr : t -> Reg.t

(** Fresh label with the given stem, unique within the function. *)
val fresh_label : t -> string -> string

(** {1 Blocks} *)

(** Start a new block with this label. The previous block must have been
    terminated. *)
val block : t -> string -> unit

(** {1 Generic emission} *)

val emit :
  t ->
  op:Opcode.t ->
  ?defs:Reg.t array ->
  ?uses:Reg.t array ->
  ?imm:int64 ->
  ?fimm:float ->
  ?target:string ->
  ?target2:string ->
  unit ->
  unit

(** {1 Integer ops} *)

val movi : t -> ?dst:Reg.t -> int64 -> Reg.t
val mov : t -> ?dst:Reg.t -> Reg.t -> Reg.t
val add : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val sub : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val mul : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val div : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val rem : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val and_ : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val or_ : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val xor : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val shl : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val shr : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val sra : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val addi : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val muli : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val andi : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val xori : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val shli : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val shri : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val srai : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t

(** {1 Compares and select} *)

val cmp : t -> ?dst:Reg.t -> Cond.t -> Reg.t -> Reg.t -> Reg.t
val cmpi : t -> ?dst:Reg.t -> Cond.t -> Reg.t -> int64 -> Reg.t

(** [sel b p x y] is [if p then x else y]. *)
val sel : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t -> Reg.t

(** {1 Floating point} *)

val fmovi : t -> ?dst:Reg.t -> float -> Reg.t
val fmov : t -> ?dst:Reg.t -> Reg.t -> Reg.t
val fadd : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val fsub : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val fmul : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val fdiv : t -> ?dst:Reg.t -> Reg.t -> Reg.t -> Reg.t
val fcmp : t -> ?dst:Reg.t -> Cond.t -> Reg.t -> Reg.t -> Reg.t
val itof : t -> ?dst:Reg.t -> Reg.t -> Reg.t
val ftoi : t -> ?dst:Reg.t -> Reg.t -> Reg.t

(** {1 Memory} *)

val ld : t -> ?dst:Reg.t -> Opcode.width -> Reg.t -> int64 -> Reg.t
val lds : t -> ?dst:Reg.t -> Opcode.width -> Reg.t -> int64 -> Reg.t
val st : t -> Opcode.width -> value:Reg.t -> base:Reg.t -> int64 -> unit
val fld : t -> ?dst:Reg.t -> Reg.t -> int64 -> Reg.t
val fst_ : t -> value:Reg.t -> base:Reg.t -> int64 -> unit

(** {1 Control flow (terminators close the current block)} *)

val br : t -> string -> unit

(** [brc b p ~if_:l1 ~else_:l2] branches to [l1] when [p] is true. *)
val brc : t -> ?flag:bool -> Reg.t -> if_:string -> else_:string -> unit

val ret : t -> ?value:Reg.t -> unit -> unit
val halt : t -> ?code:Reg.t -> unit -> unit

(** [call b "f" args] (body instruction, does not close the block). *)
val call : t -> ?dst:Reg.t -> string -> Reg.t list -> unit

(** {1 Structured-control helpers} *)

(** [counted_loop b ~from ~until ?step body] builds
    [for iv = from; iv < until; iv += step do body iv done].
    Emission continues in the loop-exit block. *)
val counted_loop :
  t ->
  ?name:string ->
  from:int64 ->
  until:int64 ->
  ?step:int64 ->
  (t -> Reg.t -> unit) ->
  unit

(** [if_ b p then_ else_]: both arms join; emission continues after. *)
val if_ : t -> ?name:string -> Reg.t -> (t -> unit) -> (t -> unit) -> unit
