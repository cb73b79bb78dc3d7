(** Three-level cache hierarchy plus main memory (paper Table I).

    [access] returns the access latency in cycles: the latency of the
    innermost level that hits (or memory latency on a full miss), matching
    the cumulative per-level latencies the paper lists. Caches are
    non-blocking in the paper; the simulator reproduces that by charging
    each load its own latency without serialising misses. *)

type t

type stats = {
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  l3_hits : int;
  l3_misses : int;
  writebacks : int;
}

val create : Casted_machine.Config.cache_config -> t

(** Latency in cycles of a read or write to [addr]. *)
val access : t -> addr:int -> write:bool -> int

(** An ideal hierarchy: every access hits in L1. Used by the
    perfect-cache ablation. *)
val perfect : Casted_machine.Config.cache_config -> t

val stats : t -> stats
val reset : t -> unit

(** Immutable copy of the whole hierarchy's state (all levels' tags,
    dirty bits, LRU stamps, statistics) plus the perfect-cache flag.
    Never mutated after capture, so safe to share across domains. *)
type snapshot

val snapshot : t -> snapshot

(** Write a snapshot back into a hierarchy of the same geometry and
    perfect-cache mode. Raises [Invalid_argument] on a mode or level
    mismatch. *)
val restore : t -> snapshot -> unit

(** The perfect-cache flag the snapshot was captured under. *)
val snapshot_perfect : snapshot -> bool

(** Approximate heap footprint of a snapshot, in bytes. *)
val snapshot_bytes : snapshot -> int

val pp_stats : Format.formatter -> stats -> unit
