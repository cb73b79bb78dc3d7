(** Static placement analysis of a schedule.

    Quantifies what the paper argues qualitatively in §IV-B6: DCED pins
    the whole redundant stream on the remote cluster regardless of the
    interconnect, while CASTED migrates code towards the home cluster as
    the inter-core delay grows.

    Issue-slot occupancy is no longer accounted here: the simulator is
    the single source of truth — see {!Casted_sim.Outcome.occupancy}
    (and the [sim.slots_offered] / [sim.occupancy] metrics), fed by
    {!occupancy_of_run} below. *)

type t = {
  insns_per_cluster : int array;
  detection_remote : int;
      (** replicas/checks/copies placed on clusters other than 0 *)
  detection_total : int;
  original_remote : int;  (** original instructions placed off cluster 0 *)
  original_total : int;
}

val analyze : Casted_sched.Schedule.t -> t

(** Fraction of detection code placed on the remote cluster(s). *)
val detection_remote_fraction : t -> float

val original_remote_fraction : t -> float

(** Dynamic issue-slot occupancy of a simulated run, from the
    simulator's own slot counters ([= Casted_sim.Outcome.occupancy]). *)
val occupancy_of_run : Casted_sim.Outcome.run -> float

(** A table of remote-placement fractions of DCED and CASTED at issue
    2, delays 1–4, for one fault-sized benchmark — the "adaptivity
    visualised" report. Each schedule is compiled through [engine]'s
    cache. *)
val placement_table :
  engine:Casted_engine.Engine.t -> benchmark:string -> string
