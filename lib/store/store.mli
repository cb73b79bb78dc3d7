(** Persistent content-addressed campaign-result store.

    The engine's compiled/decoded/replay caches die with the process,
    so every sweep over the issue-width × delay × scheme × fault-model ×
    workload matrix used to re-simulate cells whose tallies were
    already known bit-for-bit. The store keeps finished (and partially
    finished) campaign tallies on disk, keyed by the campaign identity
    ({!Casted_engine.Cache.identity} plus the fault model, seed, fuel
    factor and retry budget), so re-running a matrix only simulates the
    delta. It is also the only way to make one campaign crash-safe: a
    campaign banks its running tally after every finished 64-trial
    chunk, and a rerun resumes after the last banked one.

    {b Layout.} A store is a directory:

    {v
    DIR/MANIFEST            "casted-store v1" — version sentinel
    DIR/entries/<md5>.entry one tally per campaign cell
    DIR/queue/<md5>.unit    work units (see {!Work})
    DIR/locks/<md5>.lock    in-flight claims (see {!Work})
    v}

    An entry's filename is the MD5 of its canonical key string, so the
    key {e is} the address: two processes writing the same cell write
    the same file (atomically, last writer wins — both wrote the same
    bit-identical tally for equal [trials]), and a lookup is one hash
    plus one file read.

    {b Extension.} An entry carries the tally of trials
    [0, trials_done). Because trial [i]'s outcome depends only on
    [(seed, i, model)] (see {!Casted_sim.Montecarlo.trial}), a campaign
    resumed at [trials_done] and summed onto the banked counts
    reproduces the uninterrupted tally bit-for-bit.

    {b Integrity.} Every read re-derives the canonical key string from
    the entry's own fields and refuses (loudly, [Error]) an entry whose
    hash does not match its filename, whose counts do not sum to its
    recorded trials, or whose version sentinel is unknown. An entry of
    one shard of a cell, written before sharding was retired, is
    refused the same way; its file can be deleted. Writes are
    atomic (unique tmp file + [rename]), so a SIGKILL can never leave a
    half-written entry behind — at worst an orphan tmp file that
    {!gc_tmp} sweeps.

    All operations record [store.*] {!Casted_obs.Metrics} counters
    (hits, misses, writes, bytes read/written). *)

(** A campaign cell's identity. [identity] is the engine's rendering of
    (workload, scheme, config, fault model). [retry_budget] is [-1] when
    the campaign runs no recovery loop. [trials] is the requested
    campaign length; it is part of an early-stop entry's address but
    {e not} of a plain full entry's (full entries extend in place as
    more trials accumulate). [ci_halfwidth] is the detected-rate stop
    target of an early-stop cell ({!early_stop}), [None] otherwise. *)
type key = {
  identity : string;
  seed : int;
  fuel_factor : int;
  retry_budget : int;
  trials : int;
  ci_halfwidth : float option;
}

val key :
  ?retry_budget:int ->
  identity:string ->
  seed:int ->
  fuel_factor:int ->
  trials:int ->
  unit ->
  key

(** The retry budget a recorded [retry_budget] field stands for: [-1],
    {!key}'s default, is [None] (no recovery loop, the scheme's
    default). *)
val retry_budget_of_field : int -> int option

(** [early_stop ~ci_halfwidth k] is [k] as the cell of a campaign that
    stops once the detected-rate Wilson half-width reaches
    [ci_halfwidth] percentage points. Raises [Invalid_argument] unless
    the target is positive and finite. *)
val early_stop : ci_halfwidth:float -> key -> key

(** The canonical string hashed into the entry's filename: [identity
    |seed=S|fuel=F|retry=R], then [|trials=N|ci=W] for an early-stop
    cell, [W] the shortest
    decimal that reads back as the target. Pinned by golden tests —
    changing its shape orphans every store on disk. *)
val address : key -> string

(** MD5 hex of {!address}. *)
val hash : key -> string

(** One stored tally. [counts] is indexed by
    {!Casted_sim.Montecarlo.counts} order (benign, detected, exception,
    data-corrupt, timeout, recovered);
    [trials_done] always equals the sum of [counts]. The [spec_*]
    fields, when present, record the explicit cell coordinates so
    [casted store audit] and workers can rebuild the campaign; an entry
    written from a non-reconstructible spec (non-default pass options)
    has [spec = None]. *)
type spec = {
  workload : string;
  size : string;
  scheme : string;
  issue : int;
  delay : int;
  model : string;
}

type entry = {
  key : key;
  trials_done : int;
  counts : int array;
  golden_cycles : int;
  golden_dyn : int;
  population : int;
  model : string;
  spec : spec option;
}

type t

(** [open_dir ~create dir] opens (or with [create], initialises) a
    store directory, verifying the MANIFEST version sentinel. A
    directory that exists but is not a store, or a store written by an
    unknown version, is a loud [Error] — never silently reused. Without
    [create], a directory with no MANIFEST, missing or empty, is "no
    such store", and nothing is created. *)
val open_dir : ?create:bool -> string -> (t, string) result

(** {!open_dir}, raising [Invalid_argument] on error. *)
val open_exn : ?create:bool -> string -> t

val dir : t -> string

(** [find t key] reads the entry at [key]'s address. [Ok None] when
    absent; [Error] on a corrupt, mis-addressed or wrong-version
    entry. Counted as a hit or miss. *)
val find : t -> key -> (entry option, string) result

(** [put t entry] atomically writes [entry] at its key's address
    (unique tmp + rename). Raises [Invalid_argument] on a malformed
    entry (counts/trials mismatch, newline in identity). *)
val put : t -> entry -> unit

(** All entries, sorted by address, skipping nothing: a corrupt entry
    is an [Error] naming the file. *)
val list : t -> ((entry, string) result list, string) result

(** Remove orphan tmp files older than [age_s] seconds (default 60) —
    debris of SIGKILLed writers. Returns how many were removed. *)
val gc_tmp : ?age_s:float -> t -> int

(** Lifetime counters of this handle (process-local). *)
type stats = {
  hits : int;  (** lookups answered from disk *)
  misses : int;  (** lookups that found no entry *)
  writes : int;  (** entries written *)
  bytes_read : int;
  bytes_written : int;
}

val stats : t -> stats

(** Atomic write helper shared with {!Work}: writes [content] to
    [path] via a tmp file unique to this process, then renames. *)
val atomic_write : path:string -> string -> unit
