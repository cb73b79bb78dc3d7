(** Cycle-driven VLIW list scheduler.

    Runs after cluster assignment (the paper places both CASTED passes
    just before the first instruction-scheduling pass, Fig. 5). Within a
    block it issues ready instructions greedily, highest critical-path
    height first, respecting the per-cluster issue width and charging the
    inter-cluster delay on value-carrying edges whose endpoints live on
    different clusters. *)

(** [schedule_block config dfg ~assignment ~label] produces the bundle
    schedule of one block. [assignment] must map every DFG node to a
    cluster in range. *)
val schedule_block :
  Casted_machine.Config.t ->
  Dfg.t ->
  assignment:int array ->
  label:string ->
  Schedule.block_schedule

(** Schedule a whole program. *)
val schedule_program :
  Casted_machine.Config.t ->
  Assign.strategy ->
  Casted_ir.Program.t ->
  Schedule.t
