(** Instruction opcodes of the IR ISA.

    The ISA is a RISC-like three-address code rich enough to express the
    paper's workloads: 64-bit integer and float arithmetic, compares into
    predicate registers, predicated select, loads/stores of width 1/2/4/8
    bytes, branches, calls and the [Chk] instruction emitted by the error
    detection pass (Algorithm 1 of the paper). *)

(** Memory access width in bytes. *)
type width = W1 | W2 | W4 | W8

val width_bytes : width -> int

type t =
  (* Integer ALU, register-register. *)
  | Add
  | Sub
  | Mul
  | Div  (** signed; traps on divide by zero *)
  | Rem  (** signed remainder; traps on divide by zero *)
  | And
  | Or
  | Xor
  | Shl  (** shift amount taken modulo 64 *)
  | Shr  (** logical right shift *)
  | Sra  (** arithmetic right shift *)
  | Mov
  (* Integer ALU, register-immediate. *)
  | Movi  (** gp := imm *)
  | Addi  (** gp := gp + imm *)
  | Muli  (** gp := gp * imm *)
  | Andi  (** gp := gp land imm *)
  | Xori  (** gp := gp lxor imm *)
  | Shli  (** gp := gp lsl imm *)
  | Shri  (** gp := gp lsr imm *)
  | Srai  (** gp := gp asr imm *)
  (* Compares and predicated select. *)
  | Cmp of Cond.t  (** pr := gp <cond> gp *)
  | Cmpi of Cond.t  (** pr := gp <cond> imm *)
  | Sel  (** gp := if pr then gp1 else gp2 *)
  (* Floating point. *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmov
  | Fmovi  (** fp := fimm *)
  | Fcmp of Cond.t  (** pr := fp <cond> fp *)
  | Itof  (** fp := float_of_int gp *)
  | Ftoi  (** gp := int_of_float fp (truncating) *)
  (* Memory. Addresses are gp base + imm offset; accesses must be
     width-aligned and in bounds, otherwise the simulator raises a
     machine exception. *)
  | Ld of width  (** gp := zero_extend mem[gp + imm] *)
  | Lds of width  (** gp := sign_extend mem[gp + imm] *)
  | St of width  (** mem[gp1 + imm] := truncate gp0 *)
  | Fld  (** fp := mem64[gp + imm] as float *)
  | Fst  (** mem64[gp1 + imm] := fp0 bits *)
  (* Control flow (never replicated by the detection pass). *)
  | Br  (** unconditional jump to [target] *)
  | Brc of bool  (** jump to [target] if pr = flag, else fall through to [target2] *)
  | Call  (** call function [target]; uses = args, defs = optional result *)
  | Ret  (** return to caller; uses = optional result value *)
  | Halt  (** stop the machine; uses = optional exit code *)
  (* Error detection support. *)
  | Chk  (** compare two same-class registers; trap to the detection
             handler if they differ. Emitted by the detection pass. *)
  | Cpt  (** checkpoint marker: its block's top is a rollback-region
             boundary where the simulator snapshots the machine.
             Emitted by the rollback pass; executes as a no-op. *)
  | Nop

(** Every opcode, in declaration order: each [Cond.t] and [width]
    instance, and both [Brc] flags. The assembler's mnemonic table is
    built from it, so an opcode missing here cannot be parsed back. *)
val all : t list

(** {1 Classification used by the error-detection pass} *)

val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool

(** Control-flow instructions: [Br], [Brc], [Call], [Ret], [Halt]. *)
val is_control_flow : t -> bool

(** Block terminators: [Br], [Brc], [Ret], [Halt] (not [Call]). *)
val is_terminator : t -> bool

val is_check : t -> bool
val is_checkpoint : t -> bool

(** Instructions the detection pass replicates: everything that is not a
    store, not control flow and not already detection or recovery code. *)
val replicable : t -> bool

(** Instructions with externally visible effects (memory writes, control
    flow, checks): these must not be reordered freely. *)
val has_side_effect : t -> bool

(** [uses_imm op] is true when the instruction reads its integer
    immediate field. *)
val uses_imm : t -> bool

val uses_fimm : t -> bool

(** Register-class signature [(defs, uses)] of an opcode.
    [Call] and [Ret] have variable signatures and return [None]. *)
val signature : t -> (Reg.cls list * Reg.cls list) option

val equal : t -> t -> bool
val mnemonic : t -> string
val pp : Format.formatter -> t -> unit
