(** Domain pool executor: a shared work queue drained by [jobs - 1]
    worker domains plus the submitting domain itself.

    The pool is the parallel substrate of the experiment engine
    ({!Casted_engine.Engine}): independent experiment jobs — sweep
    points, Monte-Carlo trials — are fanned out over the pool with
    {!map}, which preserves input order so parallel and sequential
    execution produce identical result arrays.

    A pool with [jobs = 1] spawns no domains and runs every task inline
    in the caller, so the [jobs = 1] path is bit-identical to, and as
    cheap as, a plain [Array.map]. *)

type t

(** [create ~jobs ()] makes a pool of [max 1 jobs] executors
    ([jobs - 1] spawned domains; the caller of {!map} is the last).
    Raises [Invalid_argument] if [jobs < 1]. *)
val create : jobs:int -> unit -> t

(** Executor count the pool was created with (>= 1). *)
val jobs : t -> int

(** [map pool f arr] applies [f] to every element, in parallel across
    the pool, and returns the results in input order. Exceptions raised
    by [f] are re-raised in the caller (first failing index wins).
    Raises [Invalid_argument] on a pool that has been {!shutdown}. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** {!map} over a list, preserving order. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Fault-tolerant {!map}: a task that raises yields [Error exn] in its
    slot instead of aborting the batch — every other task still runs to
    completion. This is the substrate for trial-level fault tolerance
    in Monte-Carlo campaigns: one pathological trial is recorded, not
    fatal to the pool. *)
val map_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array

(** Drain the queue, join all worker domains and mark the pool closed.
    Every task already submitted is completed before the workers exit —
    no job is lost. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** Lifetime counters. *)
type stats = {
  jobs : int;  (** executors ([domains] + the caller) *)
  domains : int;  (** worker domains spawned *)
  tasks : int;  (** tasks completed so far *)
  busy_s : float;  (** summed wall-clock seconds spent inside tasks *)
  wall_s : float;  (** wall-clock seconds since [create] *)
}

val stats : t -> stats

(** {2 Sizing knobs} *)

(** Number of executors to use by default: [$CASTED_JOBS] if set, else
    {!Domain.recommended_domain_count}. Malformed or non-positive
    [$CASTED_JOBS] is an [Error] carrying a human-readable message —
    callers must reject it loudly, not fall back silently. *)
val default_jobs : unit -> (int, string) result
