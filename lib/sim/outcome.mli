(** Results of a simulated run. *)

type termination =
  | Exit of int  (** [Halt] executed with this exit code *)
  | Recovered of { exit_code : int; retries : int }
      (** [Halt] executed after [retries] region rollbacks repaired one
          or more detections ({!Compile.run} [~retry_budget]) *)
  | Detected of int  (** a [Chk] fired; carries the check's insn id *)
  | Trapped of Trap.t  (** machine exception *)
  | Timeout  (** dynamic instruction budget exhausted *)

type run = {
  termination : termination;
  cycles : int;  (** total execution cycles *)
  dyn_insns : int;  (** dynamic instructions executed *)
  dyn_defs : int;  (** dynamic register slots written; the register
                       fault-injection population. Equal to the number
                       of defining instructions when every instruction
                       defines at most one register. *)
  dyn_mem : int;  (** dynamic memory accesses (loads + stores); the
                      {!Fault.Mem} population *)
  dyn_branches : int;  (** dynamic conditional branches; the
                           {!Fault.Control} population *)
  dyn_xreads : int;  (** operand reads crossing the cluster boundary;
                         the {!Fault.Xcluster} population *)
  dyn_checks : int;  (** dynamic [Chk] instructions executed (the
                         {!Casted_ir.Insn.Check} role count) *)
  dyn_corrections : int;
      (** faults repaired in place by a TMR voting sequence (a
          [Check]-role [Sel] whose agreeing replicas outvoted a
          diverging master copy); always 0 fault-free *)
  dyn_by_role : int array;  (** dynamic count per {!Casted_ir.Insn.role} *)
  slots_total : int;  (** issue slots the machine offered over the run:
                          cycles × clusters × issue width. The single
                          source of truth for slot-occupancy
                          accounting. *)
  output : string;  (** contents of the program's output region *)
  exit_code : int;  (** exit code, or -1 when not [Exit]/[Recovered] *)
  cache : Casted_cache.Hierarchy.stats;
  mem_digest : string;
      (** digest of the whole memory image after the run, or [""] when
          the run was not asked to compute it
          ([Simulator.run ~with_mem_digest:true]). Off the campaign hot
          path: a faulty trial never pays for it. *)
}

val pp_termination : Format.formatter -> termination -> unit
val pp : Format.formatter -> run -> unit

(** Instructions per cycle over the whole run. *)
val ipc : run -> float

(** Dynamic issue-slot occupancy: executed instructions over
    {!field-slots_total} (every instruction occupies one slot). *)
val occupancy : run -> float

(** 1 when the run ended in a machine trap, else 0. *)
val trapped : run -> int
