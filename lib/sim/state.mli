(** First-class machine state for the pre-decoded simulator.

    Everything either engine ({!Compile}, or the reference interpreter
    in {!Simulator}) mutates during a run lives here: the
    dynamic-event counters campaigns size injection populations from,
    the lockstep clock, the control-transfer scratch, the working memory
    arena and the cache-hierarchy model, plus the per-call register file.

    The payoff is {!snapshot}/{!restore}: at an entry-function block
    boundary with the call stack empty, these fields are the {e whole}
    machine, so a snapshot there plus the (immutable) decoded program
    determines the rest of the run exactly — the foundation of
    golden-prefix replay ({!Replay}). *)

(** Per-call register file with scoreboard metadata: value, ready time
    and producing cluster per register. GP values are stored unboxed,
    8 native-endian bytes per register, so a write allocates nothing;
    the compiled engine reads and writes them with the
    [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives at
    compile-time-proven offsets, everything else goes through
    {!get_gp}/{!set_gp}. *)
type regfile = {
  gp : Bytes.t;  (** register [i] at bytes [8i .. 8i+7] *)
  fpv : float array;
  prv : bool array;
  gp_ready : int array;
  fp_ready : int array;
  pr_ready : int array;
  gp_home : int array;
  fp_home : int array;
  pr_home : int array;
}

(** Fresh register file for one call of [func]; every register becomes
    readable at [time], homes are unset. *)
val make_regfile : Casted_ir.Func.t -> time:int -> regfile

(** [reset_regfile rf ~time] puts a frame back into the state
    {!make_regfile} builds it in, without allocating: every value zero,
    readable at [time], homes unset. *)
val reset_regfile : regfile -> time:int -> unit

(** [entry_regfile func ~time] is the calling domain's entry register
    file, in the state {!make_regfile} builds: the one frame a run's
    entry function executes in. Reused across runs on the same domain
    (reset, not reallocated, when [func]'s register counts match the
    last run's), so it is only valid until the domain's next run
    starts. *)
val entry_regfile : Casted_ir.Func.t -> time:int -> regfile

(** Checked GP accessors: an index outside the frame raises
    [Invalid_argument "index out of bounds"]. *)
val get_gp : regfile -> int -> int64

val set_gp : regfile -> int -> int64 -> unit

(** A value crossing a call boundary. *)
type value = V_gp of int64 | V_fp of float | V_pr of bool

(** Sentinels for the [xfer] control-transfer field: [xfer_none] while a
    block runs, a block index after a taken branch, [xfer_return] after
    Ret (value parked in [retv]). *)
val xfer_none : int

val xfer_return : int

type t = {
  mem : Memory.t;
  base : Bytes.t;  (** pristine image [mem] was last reset from *)
  hier : Casted_cache.Hierarchy.t;
  timed : bool;
      (** [false]: an untimed machine, [hier] is {!untimed_hierarchy} *)
  mutable time : int;  (** issue time of the last issued bundle *)
  mutable dyn : int;
  mutable defs : int;  (** dynamic register slots written *)
  mutable mems : int;  (** dynamic memory accesses (loads + stores) *)
  mutable branches : int;  (** dynamic conditional branches *)
  mutable xreads : int;  (** operand reads crossing the cluster boundary *)
  mutable corrections : int;
      (** single faults repaired by a voting sequence (TMR) *)
  roles : int array;  (** dynamic count per role *)
  mutable depth : int;
  mutable tmax : int;  (** scratch for bundle issue-time computation *)
  mutable xfer : int;
  mutable retv : value option;
}

(** Per-domain scratch memory arena reset to [image]. Reused across
    runs on the same domain; when the same image object is passed again
    the reset is [Memory.undo_writes] — O(pages the previous run
    dirtied) — and only a new image pays a full-arena blit. *)
val scratch_memory : Bytes.t -> Memory.t

(** Per-domain scratch cache hierarchy for (geometry, perfect), reset
    field-by-field per run. The hierarchy of every timed run. *)
val scratch_hierarchy :
  Casted_machine.Config.cache_config -> perfect:bool -> Casted_cache.Hierarchy.t

(** The calling domain's untimed hierarchy: the one an untimed run
    ({!Compile.run} [~timed:false]) sits on. Built once per domain
    (from the first geometry passed) in a slot apart from
    {!scratch_hierarchy}'s, and never accessed, reset or restored, so
    it costs an untimed run nothing and every statistic it reports is
    zero. In an untimed run, [time] and the hierarchy are therefore not
    measurements: the clock advances without operand stalls and the
    cache statistics read zero. *)
val untimed_hierarchy :
  Casted_machine.Config.cache_config -> Casted_cache.Hierarchy.t

(** [fresh ~timed ~image cache] is the machine at the start of a run
    (clock at -1, counters zero), backed by the calling domain's scratch
    arena and by one of the two per-domain hierarchies above: the
    {!scratch_hierarchy} of [cache] ([perfect], default [false]) when
    [timed], else the {!untimed_hierarchy}. *)
val fresh :
  ?perfect:bool ->
  timed:bool ->
  image:Bytes.t ->
  Casted_machine.Config.cache_config ->
  t

(** A deep, immutable copy of the machine at an entry-function
    block-loop top: counters, clock, entry register file, memory state
    (a sparse {!Memory.delta} over the shared pristine image), cache
    state of a timed machine, and the block index to resume at. Safe to share read-only
    across pool domains. Only valid when the call stack is empty
    (depth 1) — [xfer]/[retv]/[tmax] are dead there and are not
    captured. *)
type snapshot = {
  s_time : int;
  s_dyn : int;
  s_defs : int;
  s_mems : int;
  s_branches : int;
  s_xreads : int;
  s_corrections : int;
  s_roles : int array;
  block : int;
  regs : regfile;
  mem_base : Bytes.t;  (** shared pristine image, not a copy *)
  mem_delta : Memory.delta;
  cache : Casted_cache.Hierarchy.snapshot option;
      (** the cache state; [None] when the machine ran untimed, whose
          hierarchy holds nothing to copy *)
}

(** [snapshot st ~regs ~block] captures the machine; O(pages written +
    cache sets touched), not O(arena + cache capacity). An untimed
    machine's snapshot copies no cache state. *)
val snapshot : t -> regs:regfile -> block:int -> snapshot

(** [restore ~cache snap] rebuilds an equivalent machine on the calling
    domain's scratch (dirty-page undo + delta apply on the arena,
    sparse hierarchy restore) and returns it with the domain's entry
    register file ({!entry_regfile}) overwritten with the snapshot's.
    The snapshot itself is never written. The returned state has
    [depth = 1] and no pending transfer — ready for the entry
    function's block loop at [snap.block].

    With [~timed:false] (default [true]) the machine sits on
    {!untimed_hierarchy} and the snapshot's cache state is not
    restored; the clock, counters, registers (ready times and homes
    included) and memory are restored as in a timed restore. For
    untimed runs only. A timed restore of an untimed snapshot raises
    [Invalid_argument]: it has no cache state to resume from, and the
    run would silently report wrong cycles. *)
val restore :
  ?timed:bool ->
  cache:Casted_machine.Config.cache_config -> snapshot -> t * regfile

(** [matches st regs ~block snap] is true when the machine at an
    entry-function block top ([regs] its entry register file, [block]
    the block about to run) is architecturally the machine [snap]
    captured: same dynamic count and block, same predicates, GP bytes
    and FP bit patterns, and the same memory (every page either side
    dirtied, via {!Memory.matches}; both must share the pristine
    image). The scoreboard, clock, cache and event counters are not
    compared — they feed cycle and population accounting only. From
    such a point, a run without a pending fault executes exactly the
    instructions, values and memory writes of the run [snap] came
    from. *)
val matches : t -> regfile -> block:int -> snapshot -> bool

(** Approximate heap footprint of a snapshot, in bytes. *)
val snapshot_bytes : snapshot -> int
