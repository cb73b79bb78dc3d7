(** Block-local data-flow graph (paper §II-B, Fig. 2c/3c).

    Nodes are the block's instructions (body plus terminator). Edges carry
    a minimum issue-distance [latency] and a [kind]; only [Data] and
    [Check] edges transfer a value between instructions and therefore pay
    the inter-cluster delay when their endpoints are assigned to different
    clusters. *)

module Insn = Casted_ir.Insn
module Block = Casted_ir.Block

type edge_kind =
  | Data  (** true register dependence *)
  | Anti  (** write-after-read *)
  | Output  (** write-after-write *)
  | Mem  (** conservative memory ordering *)
  | Ctrl  (** everything must issue no later than the terminator *)
  | Check  (** a [Chk] guarding a non-replicated instruction *)

type edge = { src : int; dst : int; latency : int; kind : edge_kind }

type t = {
  insns : Insn.t array;  (** body followed by the terminator *)
  preds : edge list array;
  succs : edge list array;
  latency : int array;  (** per-node instruction latency *)
}

(** [kind_pays_delay k] is true for edges whose value crosses the
    inter-cluster interconnect when endpoints differ in cluster. *)
val kind_pays_delay : edge_kind -> bool

val build : latency:(Insn.t -> int) -> Block.t -> t

val num_nodes : t -> int

(** Critical-path height of each node: the longest latency-weighted path
    from the node to any sink, including the node's own latency. Used as
    the scheduling priority (paper Algorithm 2 visits critical-path
    instructions first). *)
val heights : t -> int array

(** Length of the critical path in cycles. *)
val critical_path : t -> int

val pp : Format.formatter -> t -> unit
