(** Flat byte-addressable memory arena.

    The arena has hard bounds so that corrupted address registers surface
    as {!Trap.Trap} machine exceptions — the dominant fault outcome the
    paper observes. All accesses are little-endian and must be aligned to
    their width. *)

type t

val create : size:int -> t
val size : t -> int

(** Seed the arena from (address, bytes) segments. *)
val load_image : t -> (int * string) list -> unit

(** [pristine ~size segments] renders the initial memory image once:
    [size] zero bytes with the segments blitted in (bounds-checked).
    The pre-decoded simulator core shares one pristine image across all
    trials of a campaign and restores it per run with a single blit. *)
val pristine : size:int -> (int * string) list -> Bytes.t

(** Fresh working arena initialised from a pristine image (copies). *)
val of_image : Bytes.t -> t

(** [reset t image] re-initialises the arena from the image with one
    [Bytes.blit], no allocation. Raises [Invalid_argument] if the image
    length differs from the arena size. *)
val reset : t -> Bytes.t -> unit

(** [undo_writes t base] re-initialises the arena from [base] by
    blitting back only the pages written since the last {!reset} /
    {!undo_writes} / {!of_image} — O(pages dirtied), not O(size). Only
    valid against the same [base] the arena was last reset from (writes
    are journalled relative to it); raises [Invalid_argument] on a size
    mismatch. *)
val undo_writes : t -> Bytes.t -> unit

(** Sparse snapshot of the pages written since the last reset —
    immutable after capture, safe to share read-only across domains. *)
type delta

(** [delta t] captures the arena's dirty pages, O(pages dirtied). *)
val delta : t -> delta

(** [apply_delta t d] blits the delta's pages into the arena (and
    journals them as dirty, so a later {!undo_writes} removes them
    again). Restoring a snapshot is [undo_writes t base] followed by
    [apply_delta t d]. Raises [Invalid_argument] if [d] was captured
    from an arena of a different size. *)
val apply_delta : t -> delta -> unit

(** Approximate heap footprint of a delta, in bytes. *)
val delta_bytes : delta -> int

(** [matches t ~base d] is true when the arena holds exactly [base]
    overlaid with [d]: the state {!undo_writes} [t base] followed by
    {!apply_delta} [t d] would leave. Only valid when [t] was last
    reset from [base] (its journal covers every byte that differs from
    [base]); costs O(pages journalled + pages in [d]), not O(arena).
    Raises [Invalid_argument] on a size mismatch. *)
val matches : t -> base:Bytes.t -> delta -> bool

(** [read t ~addr ~width ~signed] returns the (sign- or zero-extended)
    value. Raises {!Trap.Trap} on bounds or alignment violations. *)
val read : t -> addr:int64 -> width:Casted_ir.Opcode.width -> signed:bool -> int64

val write : t -> addr:int64 -> width:Casted_ir.Opcode.width -> int64 -> unit

(** The arena's live bytes, for an engine's in-range fast path. A fast
    path may read them at an in-range, width-aligned offset; it must
    journal a write with {!note_write} before making it. Every other
    access goes through {!read}/{!write}/{!read_float}/{!write_float},
    the one place that raises the bounds and alignment traps. *)
val unsafe_bytes : t -> Bytes.t

(** [note_write t addr len] journals [len] bytes at offset [addr]
    (already in range) as written, so {!undo_writes} and {!delta} see
    them. *)
val note_write : t -> int -> int -> unit

val read_float : t -> addr:int64 -> float
val write_float : t -> addr:int64 -> float -> unit

(** [flip_bit t ~addr ~bit] flips [bit mod 8] of the byte at [addr] —
    the {!Fault.Mem} injection primitive. Addresses outside the arena
    are ignored (a corrupted line can straddle the memory end). *)
val flip_bit : t -> addr:int64 -> bit:int -> unit

(** Copy of [len] bytes starting at [base] (bounds-checked). *)
val extract : t -> base:int -> len:int -> string

(** Fresh copy of the whole arena, suitable for {!reset} /
    {!of_image} — the state-snapshot primitive. *)
val image : t -> Bytes.t
