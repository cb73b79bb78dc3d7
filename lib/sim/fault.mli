(** Transient-fault taxonomy (paper §IV-C, generalised).

    The paper evaluates a single fault model: one flipped bit in one
    output register of one random dynamic instruction. SEU/SET studies
    (Azambuja et al.) show that control-path and multi-bit upsets behave
    qualitatively differently from data-path flips, so the injector
    models five fault classes:

    - {!Reg_bit}: the paper's model — a single bit flip in one output
      register slot of one dynamic instruction;
    - {!Burst}: a multi-bit upset — [width] adjacent bits of one output
      register slot flip together (MBU);
    - {!Mem}: memory/cache-line corruption — one bit of one byte inside
      the 64-byte line touched by a random dynamic memory access flips;
    - {!Control}: an opcode/control fault — one random dynamic
      conditional branch takes the wrong direction;
    - {!Xcluster}: an inter-cluster communication fault — the value read
      across the cluster boundary (the path CASTED's DCED/adaptive
      schemes uniquely stress) is corrupted in flight; the register file
      itself stays intact.

    Each model draws its target uniformly from its own dynamic
    population, measured on the golden run (see {!population}). *)

(** The model tag, as selected on the command line. *)
type model = Reg_bit | Burst | Mem | Control | Xcluster

val all_models : model list

(** Command-line names: ["reg-bit"], ["burst"], ["mem"], ["control"],
    ["xcluster"]. *)
val model_name : model -> string

val model_of_string : string -> model option

(** A concrete fault to inject into one run. All [target_*] indices
    count dynamic events from 0 in program order, exactly as the golden
    run counts them. *)
type t =
  | Reg_flip of { target_slot : int; bit : int }
      (** flip [bit] of the [target_slot]-th dynamically written
          register slot (predicates negate instead) *)
  | Burst_flip of { target_slot : int; bit : int; width : int }
      (** flip [width] adjacent bits starting at [bit] (mod 64) *)
  | Mem_flip of { target_access : int; offset : int; bit : int }
      (** after the [target_access]-th dynamic memory access, flip
          [bit] of the byte at [offset] inside the accessed 64-byte
          line *)
  | Branch_flip of { target_branch : int }
      (** invert the direction of the [target_branch]-th dynamic
          conditional branch *)
  | Xcluster_flip of { target_read : int; bit : int }
      (** flip [bit] of the [target_read]-th operand value read across
          the cluster boundary *)

val model_of : t -> model

(** Dynamic event populations a fault can target, measured on the
    golden run. *)
type population = {
  def_slots : int;  (** register slots written (≥ defining insns) *)
  mem_accesses : int;  (** loads + stores executed *)
  cond_branches : int;  (** conditional branches executed *)
  xcluster_reads : int;  (** operand reads crossing the cluster boundary *)
}

(** Cache-line size assumed by the {!Mem} model (bytes). *)
val line_bytes : int

(** Size of the pool the given model draws from. A population of 0
    means the fault path does not exist in this configuration (e.g. no
    cross-cluster reads on a single-cluster scheme). *)
val population_size : model -> population -> int

(** Draw a fault of the given model uniformly over its population.
    The register-flip target is drawn over {e register slots}, not
    instructions, so every written slot is equally likely regardless of
    how many slots its instruction defines. Raises [Invalid_argument]
    if the model's population is empty. *)
val random : model -> Rng.t -> population:population -> t

(** Flip [bit] of an integer value. *)
val flip_int : bit:int -> int64 -> int64

(** The bits {!flip_burst} flips: [width] adjacent bits starting at
    [bit] (indices mod 64); [width:1] is {!flip_int}'s single bit. *)
val burst_mask : bit:int -> width:int -> int64

(** Flip [width] adjacent bits starting at [bit] (indices mod 64). *)
val flip_burst : bit:int -> width:int -> int64 -> int64

(** Flip [bit] of a float's IEEE-754 representation. *)
val flip_float : bit:int -> float -> float

val flip_float_burst : bit:int -> width:int -> float -> float

val pp : Format.formatter -> t -> unit
