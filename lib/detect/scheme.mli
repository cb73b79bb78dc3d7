(** The four schemes the paper evaluates (§IV-B), plus the two
    recovery schemes this codebase adds on top.

    - [Noed]: unmodified code on a single cluster (the normalisation
      baseline);
    - [Sced]: detection code, all of it on a single cluster;
    - [Dced]: detection code, original stream on cluster 0 and redundant
      stream on cluster 1 (fixed placement);
    - [Casted]: detection code, adaptive BUG placement over both
      clusters;
    - [Dme]: decorrelated multi-version execution ({!Dme}): CASTED's
      adaptive placement, but the replica stream keeps a private
      shifted memory image and a seed-shuffled register assignment, so
      a fault on a {e shared} resource (one memory line, one
      cross-cluster operand) cannot corrupt master and replica
      bit-identically;
    - [Tmr]: SWIFT-R-style triplication with majority voting
      ({!Recover}): a single corrupted copy is voted out and repaired
      in place, so faults are {e corrected}, not just trapped;
    - [Rollback]: CASTED-style detection plus region checkpoints
      ({!Rollback}): a fired check restores the last region snapshot
      and re-executes instead of trapping. *)

type t = Noed | Sced | Dced | Casted | Dme | Tmr | Rollback

val all : t list
val name : t -> string

(** Case-insensitive lookup by {!name}. *)
val of_string : string -> t option

(** Does the scheme run a redundancy transform (anything but NOED)? *)
val hardened : t -> bool

(** Can the scheme repair a detected fault instead of trapping? True
    for [Tmr] (in-place vote) and [Rollback] (checkpoint restore). *)
val recovers : t -> bool

(** Does the scheme run on one cluster (NOED, SCED)? Such a scheme has
    no delay axis: its machine, placement, schedule and every result
    are the same at every inter-core delay, so sweeps and campaigns
    measure it once per issue width, at delay 1. *)
val single_cluster : t -> bool

(** The machine the scheme targets at a given configuration point:
    one cluster for a {!single_cluster} scheme (the delay is ignored),
    two for the rest. *)
val machine :
  t -> issue_width:int -> delay:int -> Casted_machine.Config.t

val strategy : t -> Casted_sched.Assign.strategy
