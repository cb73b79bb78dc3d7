(** Structured lint diagnostics.

    Every invariant violation found by {!Lint} is reported as one
    diagnostic carrying the rule that fired and the coordinates of the
    offending code (function / block / instruction id / schedule
    cycle), so a CI failure pinpoints the broken pass output instead of
    a mysteriously wrong coverage number. Diagnostics render as one-line
    text ({!pp}) or as JSON ({!to_json}) through the {!Casted_obs}
    sinks. *)

(** The invariant catalogue (DESIGN.md §10). *)
type rule =
  | Replica_overlap
      (** a shadow register (defined by a replica or shadow copy) is
          also defined or read by the master instruction stream *)
  | Missing_replica
      (** a replicable original instruction has no replica (Full scope
          only) *)
  | Missing_check
      (** a non-replicated instruction reads a shadowed register with
          no check covering it in its block *)
  | Missing_shadow_copy
      (** a value defined by a non-replicated instruction (or a
          parameter) was never copied into the shadow space *)
  | Bundle_overflow
      (** a cycle carries more instructions than the machine has
          clusters × issue slots, or the wrong cluster count *)
  | Unresolved_target
      (** a branch label or callee name does not resolve in the
          schedule *)
  | Delay_violation
      (** an operand is read earlier than producer issue + latency
          (+ inter-cluster delay when the producer sits on another
          cluster), or a check fires too late to guard its
          instruction *)
  | Schedule_mismatch
      (** the schedule disagrees with the IR: missing, duplicated or
          unknown instructions, inconsistent issue map, or mismatched
          block structure *)
  | Missing_vote
      (** TMR: a protected instruction reads a triplicated GP register
          with no majority-vote [Sel] covering it in its block *)
  | Partial_vote_rewrite
      (** TMR: a majority vote does not rewrite all three copies with
          the voted value, leaving a diverged copy live after the
          vote *)
  | Missing_checkpoint
      (** Rollback: a region head (entry block or backward-branch
          target) of the entry function carries no [Cpt] marker *)
  | Misplaced_checkpoint
      (** Rollback: a [Cpt] marker outside the entry function, not at
          the head of its block's body, or duplicated within a block *)
  | Shadow_collision
      (** DME: two distinct protected registers map to the same shadow
          register — the shuffle must stay a bijection of the shadow
          space, or one shadow carries two values and checks can
          falsely pass *)
  | Decorrelation_violation
      (** DME: a decorrelation invariant broke — a replica memory
          access whose immediate is not the original's shifted by
          exactly [shadow_base], or a DME program without a recorded
          [shadow_base] *)

val rule_name : rule -> string

type t = {
  rule : rule;
  func : string;
  block : string;  (** [""] when function-level *)
  insn : int;  (** instruction id; [-1] when not tied to one *)
  cycle : int;  (** schedule cycle; [-1] when not schedule-level *)
  message : string;
}

val make :
  ?block:string -> ?insn:int -> ?cycle:int -> func:string -> rule ->
  string -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Casted_obs.Json.t

(** Render a diagnostic list as a JSON array. *)
val list_to_json : t list -> Casted_obs.Json.t
