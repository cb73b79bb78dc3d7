(** Identity-keyed work units and lock-file claiming.

    A coordinator enqueues campaign cells as unit files under
    [DIR/queue/]; any number of worker processes (or hosts sharing the
    directory) then claim units one at a time via [O_EXCL] lock files
    under [DIR/locks/], simulate the cell, and stream the tally back as
    a {!Store} entry. A unit is done when its cell's store entry covers
    its trial count — the queue file stays behind as the durable record
    of what the matrix contains, so a re-run of the same matrix finds
    every cell already present and simulates nothing.

    Locks are advisory and crash-tolerant: a lock names its owner
    ([pid@host]); a claimer finding a lock whose process is dead on the
    same host breaks it and takes over, so a SIGKILLed worker never
    wedges the queue. ([casted store gc] also sweeps stale locks.) *)

(** One campaign cell, fully explicit — enough to rebuild the engine
    key without parsing an identity string. [retry_budget = -1] means
    the engine's default for the scheme. *)
type unit_spec = {
  workload : string;
  size : string;  (** ["fault"] or ["perf"] *)
  scheme : string;
  issue : int;
  delay : int;
  model : string;
  seed : int;
  trials : int;
  fuel_factor : int;
  retry_budget : int;
}

(** Canonical address of a unit (hashed into its filename). *)
val address : unit_spec -> string

val hash : unit_spec -> string

(** The unit's cell coordinates, in the form a store entry records. *)
val spec : unit_spec -> Store.spec

(** [enqueue store u] writes the unit file if absent. Returns [true]
    when newly enqueued, [false] when the identical unit was already
    queued. Raises [Invalid_argument] on a malformed spec (empty or
    newline-carrying fields). *)
val enqueue : Store.t -> unit_spec -> bool

(** All queued units, sorted by address; corrupt unit files surface as
    [Error] naming the file. *)
val units : Store.t -> ((unit_spec, string) result list, string) result

type claim = Claimed | Busy of string  (** [Busy owner] *)

(** [claim store u] takes the unit's lock ([O_CREAT|O_EXCL]). A lock
    held by a dead process on this host is broken and re-taken. *)
val claim : Store.t -> unit_spec -> claim

(** Drop the unit's lock (idempotent). *)
val release : Store.t -> unit_spec -> unit

(** Remove stale locks: those whose owning process is dead (same host),
    or — with [force] — every lock. Returns how many were removed. *)
val gc_locks : ?force:bool -> Store.t -> int
