(** IR instructions.

    Instructions are immutable records with a per-function unique [id].
    The error-detection pass (paper Algorithm 1) annotates every
    instruction with a {!role} so that the fixed dual-core baseline (DCED)
    and the statistics code can tell original code from detection code
    apart without re-deriving it. *)

(** Provenance of an instruction w.r.t. the detection pass:
    - [Original]: present in the input program.
    - [Replica]: duplicate of an original instruction ([replica_of]).
    - [Check]: comparison guarding a non-replicated instruction
      ([protects]).
    - [Shadow_copy]: copy creating the shadow value of a register defined
      by a non-replicated instruction (Algorithm 1, line 35). *)
type role = Original | Replica | Check | Shadow_copy

type t = {
  id : int;  (** unique within the enclosing function *)
  op : Opcode.t;
  defs : Reg.t array;
  uses : Reg.t array;
  imm : int64;  (** integer immediate; 0 when unused *)
  fimm : float;  (** float immediate; 0.0 when unused *)
  target : string;  (** branch target label / callee name; "" when unused *)
  target2 : string;  (** fall-through label of [Brc]; "" when unused *)
  role : role;
  replica_of : int;  (** id of the original instruction; -1 when unused *)
  protects : int;  (** id of the instruction a [Check] guards; -1 *)
}

val make :
  id:int ->
  op:Opcode.t ->
  ?defs:Reg.t array ->
  ?uses:Reg.t array ->
  ?imm:int64 ->
  ?fimm:float ->
  ?target:string ->
  ?target2:string ->
  ?role:role ->
  ?replica_of:int ->
  ?protects:int ->
  unit ->
  t

(** [map_uses f t] rewrites every use register through [f]. *)
val map_uses : (Reg.t -> Reg.t) -> t -> t

val map_defs : (Reg.t -> Reg.t) -> t -> t

val is_terminator : t -> bool
val is_check : t -> bool

val role_to_string : role -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
