(** Golden-prefix replay: snapshot the golden run, start each faulty
    trial from the snapshot nearest its injection event.

    Every fault model is armed by one monotone dynamic counter (written
    register slots, memory accesses, conditional branches, cross-cluster
    reads), and a faulty trial is bit-identical to the golden run until
    that counter reaches the fault's target. So a {!State.snapshot}
    taken while the counter is still at or below the target is a valid
    starting point: {!Compile.run} [~snapshot] from it reproduces the
    full run exactly, paying only the post-snapshot suffix.

    A capture set is immutable after {!capture} and safe to share
    read-only across pool domains; a campaign captures one set and
    drops it when it returns ({!Montecarlo.run}). *)

type t

(** [capture run] executes one golden run, [run ~on_block], recording
    snapshots at the entry-function block tops where [on_block] fires,
    roughly every [init_stride] dynamic instructions; whenever twice
    [target] snapshots accumulate, every other one is dropped and the
    stride doubles (single pass, no need to know the program length up
    front, deterministic). Production captures run on the compiled
    engine, [capture (fun ~on_block -> Compile.run ~on_block p)]; both
    engines fire the hook at the same points, so the reference
    interpreter captures the same set. A campaign captures untimed
    ([Compile.run ~timed:false]), so its snapshots copy no cache state
    ({!State.snapshot}); the positions [(dyn, block)] do not depend on
    the mode. The run is traced as a [sim.replay] span and counted in
    the [replay.snapshots]/[replay.snapshot_bytes] metrics.

    @param at snapshot only at block tops whose entry-function block
      index satisfies this filter (default: every block). A rollback
      campaign passes the checkpoint-flagged blocks, so each snapshot
      is a region checkpoint a recovering run can resume from. *)
val capture :
  ?init_stride:int ->
  ?target:int ->
  ?at:(int -> bool) ->
  (on_block:(State.t -> State.regfile -> int -> unit) -> Outcome.run) ->
  t

(** The golden run the capture pass executed — bit-identical to a plain
    run of the same program (the snapshot hook only copies state). *)
val golden : t -> Outcome.run

(** Number of snapshots retained. *)
val count : t -> int

(** The retained snapshots, chronological. The returned array is the
    capture set itself — treat it as read-only. *)
val snapshots : t -> State.snapshot array

(** Approximate total heap footprint of the snapshot set, in bytes. *)
val total_bytes : t -> int

(** Final dynamic-instruction stride between retained snapshots. *)
val stride : t -> int

(** [find_index t fault] is the index in {!snapshots} of the latest
    snapshot taken before [fault]'s trigger event — the cheapest valid
    starting point — or [None] when even the first snapshot is too
    late (the trial must run full-length). O(log snapshots). *)
val find_index : t -> Fault.t -> int option

(** [find t fault] is the snapshot {!find_index} picks. *)
val find : t -> Fault.t -> State.snapshot option

(** [fired fault st] is true once the counter arming [fault] has moved
    past its target in [st] — the fault has been injected, and nothing
    further in the run depends on that counter. *)
val fired : Fault.t -> State.t -> bool

(** Fraction of the golden run's dynamic instructions executed when
    replaying from [snap] ([1.0] = whole program). *)
val suffix_fraction : t -> State.snapshot -> float
