(** One set-associative cache level.

    Write-back, write-allocate, LRU replacement. Only tags are tracked —
    the simulator keeps data in a flat arena, the cache model only decides
    latencies — which is exactly what the paper's timing results need. *)

type t

val create : size_bytes:int -> block_bytes:int -> assoc:int -> t

val of_config : Casted_machine.Config.cache_level -> t

(** [access t ~addr ~write] looks the block containing [addr] up and
    returns whether it hit. A miss allocates the block, evicting the
    least-recently-used way; evicting a dirty block counts one
    {!writebacks}. Writes mark the block dirty. Allocation-free.
    Raises [Invalid_argument] on a negative address.

    Fast path: the level remembers the block of its last access and the
    way that holds it. That block stays resident until the next access
    (which replaces the memo) or a {!clear}, so an access to the same
    block goes straight to that way: the same clock tick, stamp, dirty
    bit and hit count as the full lookup, without the set/tag arithmetic
    or the way search. {!clear}, and so {!restore}, drops the memo. *)
val access : t -> addr:int -> write:bool -> bool

(** Lookup without allocation or LRU update (used by tests). *)
val probe : t -> addr:int -> bool

val hits : t -> int
val misses : t -> int
val writebacks : t -> int

(** Back to the pristine all-invalid state, last-access memo included.
    O(sets touched since the last clear), not O(capacity): mutations
    are journalled. *)
val clear : t -> unit

val num_sets : t -> int
val block_bytes : t -> int

(** An immutable copy of a level's replacement and statistics state,
    cheap to share read-only across domains. *)
type snapshot

(** Sparse copy of tags, dirty bits, LRU stamps and counters — only the
    sets touched since the last clear are captured, O(touched). *)
val snapshot : t -> snapshot

(** Write a snapshot back into a level of the same geometry (clears the
    level first, so the last-access memo starts empty; O(touched), both
    sides). *)
val restore : t -> snapshot -> unit

(** Approximate heap footprint of a snapshot, in bytes. *)
val snapshot_bytes : snapshot -> int
