(** Domain pool executor: a shared work queue drained by [jobs - 1]
    worker domains plus the submitting domain itself.

    The pool is the parallel substrate of the experiment engine
    ({!Casted_engine.Engine}): independent experiment jobs — sweep
    points, Monte-Carlo trials — are fanned out over the pool with
    {!map}, which preserves input order so parallel and sequential
    execution produce identical result arrays. {!submit} and {!await}
    split a [map] in two, so a caller can queue its next batch before it
    waits on the current one and keep every executor busy; [map] is
    [await (submit …)], the one queueing path.

    A pool with [jobs = 1] spawns no domains: its queue is drained only
    by {!await}, which runs the batch's tasks inline in the caller, in
    submission order, so the [jobs = 1] path is bit-identical to a
    plain [Array.map]. *)

type t

(** [create ~jobs ()] makes a pool of [jobs] executors ([jobs - 1]
    spawned domains; the caller of {!await} is the last).
    Raises [Invalid_argument] if [jobs < 1]. *)
val create : jobs:int -> unit -> t

(** Executor count the pool was created with (>= 1). *)
val jobs : t -> int

(** A submitted batch of tasks whose results are ['b]. *)
type 'b batch

(** [submit pool f arr] queues one task per element of [arr] and returns
    at once; worker domains start on them immediately. Every submitted
    batch must be {!await}ed, also when its results are not wanted, so
    that no task is left queued or running. Raises [Invalid_argument] on
    a pool that has been {!shutdown}. *)
val submit : t -> ('a -> 'b) -> 'a array -> 'b batch

(** [await batch] returns the batch's results in input order. The
    caller helps drain the queue (any batch's tasks) until every task of
    [batch] has finished. Exceptions raised by a task are re-raised here
    (first failing index wins), after the whole batch has run. Awaiting
    a batch again returns at once, with the same results. *)
val await : 'b batch -> 'b array

(** [map pool f arr] is [await (submit pool f arr)]: [f] applied to
    every element, in parallel across the pool, results in input
    order. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

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
  pending : int;  (** tasks submitted and not yet finished (queued or running) *)
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
