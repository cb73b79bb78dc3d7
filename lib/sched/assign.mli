(** Cluster-assignment strategies.

    These realise the three code-placement policies the paper compares
    (§II-B): everything on one core (SCED/NOED), the fixed original-vs-
    redundant split (DCED), and CASTED's adaptive Bottom-Up-Greedy
    placement. The result maps each DFG node to a cluster; the list
    scheduler then honours the mapping. *)

type strategy =
  | Single_cluster  (** all instructions on cluster 0 *)
  | Dual_fixed
      (** original and non-replicated code on cluster 0; replicas, checks
          and shadow copies on cluster 1 (requires >= 2 clusters) *)
  | Adaptive of Bug.options  (** Bottom-Up-Greedy (paper Algorithm 2) *)

(** [compute strategy config dfg] returns the cluster of each DFG node. *)
val compute : strategy -> Casted_machine.Config.t -> Dfg.t -> int array
