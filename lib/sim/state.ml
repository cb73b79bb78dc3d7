(* First-class machine state for the pre-decoded simulator.

   Everything a run mutates lives here: the dynamic-event counters that
   size injection populations, the lockstep clock, the control-transfer
   scratch, the working memory arena and the cache-hierarchy model, plus
   the per-call register file ([regfile]). Pulling the state out of the
   engines makes it snapshotable: [snapshot] captures the whole
   machine in O(state size) at an entry-function block boundary (call
   stack empty), and [restore] rebuilds an equivalent machine from it —
   the foundation of golden-prefix replay (Replay). *)

module Reg = Casted_ir.Reg
module Func = Casted_ir.Func
module Config = Casted_machine.Config
module Hierarchy = Casted_cache.Hierarchy

(* Per-call register file with scoreboard metadata: for every register we
   track its value, the time it becomes readable and the cluster that
   produced it (cross-cluster reads pay the interconnect delay). GP
   values live unboxed, 8 native-endian bytes per register: an
   [int64 array] boxes every write. *)
type regfile = {
  gp : Bytes.t;
  fpv : float array;
  prv : bool array;
  gp_ready : int array;
  fp_ready : int array;
  pr_ready : int array;
  gp_home : int array;
  fp_home : int array;
  pr_home : int array;
}

let make_regfile func ~time =
  let n c = max 1 (Func.reg_count func c) in
  let ngp = n Reg.Gp and nfp = n Reg.Fp and npr = n Reg.Pr in
  {
    gp = Bytes.make (ngp * 8) '\000';
    fpv = Array.make nfp 0.0;
    prv = Array.make npr false;
    gp_ready = Array.make ngp time;
    fp_ready = Array.make nfp time;
    pr_ready = Array.make npr time;
    gp_home = Array.make ngp (-1);
    fp_home = Array.make nfp (-1);
    pr_home = Array.make npr (-1);
  }

let reset_regfile rf ~time =
  Bytes.fill rf.gp 0 (Bytes.length rf.gp) '\000';
  Array.fill rf.fpv 0 (Array.length rf.fpv) 0.0;
  Array.fill rf.prv 0 (Array.length rf.prv) false;
  Array.fill rf.gp_ready 0 (Array.length rf.gp_ready) time;
  Array.fill rf.fp_ready 0 (Array.length rf.fp_ready) time;
  Array.fill rf.pr_ready 0 (Array.length rf.pr_ready) time;
  Array.fill rf.gp_home 0 (Array.length rf.gp_home) (-1);
  Array.fill rf.fp_home 0 (Array.length rf.fp_home) (-1);
  Array.fill rf.pr_home 0 (Array.length rf.pr_home) (-1)

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Bounds-checked: an index outside the frame raises [Invalid_argument
   "index out of bounds"], as an array access would. *)
let get_gp rf i =
  if i < 0 then invalid_arg "index out of bounds";
  bytes_get64 rf.gp (i * 8)

let set_gp rf i v =
  if i < 0 then invalid_arg "index out of bounds";
  bytes_set64 rf.gp (i * 8) v

let copy_regfile rf =
  {
    gp = Bytes.copy rf.gp;
    fpv = Array.copy rf.fpv;
    prv = Array.copy rf.prv;
    gp_ready = Array.copy rf.gp_ready;
    fp_ready = Array.copy rf.fp_ready;
    pr_ready = Array.copy rf.pr_ready;
    gp_home = Array.copy rf.gp_home;
    fp_home = Array.copy rf.fp_home;
    pr_home = Array.copy rf.pr_home;
  }

let blit_regfile ~src ~dst =
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  Bytes.blit src.gp 0 dst.gp 0 (Bytes.length src.gp);
  blit src.fpv dst.fpv;
  blit src.prv dst.prv;
  blit src.gp_ready dst.gp_ready;
  blit src.fp_ready dst.fp_ready;
  blit src.pr_ready dst.pr_ready;
  blit src.gp_home dst.gp_home;
  blit src.fp_home dst.fp_home;
  blit src.pr_home dst.pr_home

(* Each executor domain also keeps one entry register file, as it
   keeps the memory arena below: a function with more than ~250
   registers has register arrays too large for the minor heap, so a
   fresh file per run would be allocated straight into the major heap
   on every trial. The entry frame is dead once its run returns
   (callee frames are the engine's own), so the next run on the domain
   takes it over: reset on a fresh run, overwritten on a restore. *)
let scratch_regs : regfile option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_shaped ~gp ~fp ~pr =
  match !(Domain.DLS.get scratch_regs) with
  | Some rf
    when Bytes.length rf.gp = gp * 8
         && Array.length rf.fpv = fp
         && Array.length rf.prv = pr ->
      Some rf
  | _ -> None

let keep rf =
  Domain.DLS.get scratch_regs := Some rf;
  rf

let entry_regfile func ~time =
  let n c = max 1 (Func.reg_count func c) in
  match scratch_shaped ~gp:(n Reg.Gp) ~fp:(n Reg.Fp) ~pr:(n Reg.Pr) with
  | Some rf ->
      reset_regfile rf ~time;
      rf
  | None -> keep (make_regfile func ~time)

let entry_regfile_of src =
  match
    scratch_shaped ~gp:(Bytes.length src.gp / 8) ~fp:(Array.length src.fpv)
      ~pr:(Array.length src.prv)
  with
  | Some rf ->
      blit_regfile ~src ~dst:rf;
      rf
  | None -> keep (copy_regfile src)

(* A value crossing a call boundary. *)
type value = V_gp of int64 | V_fp of float | V_pr of bool

(* Control transfer is a mutable state field instead of a per-block ref
   so the bundle-issue loop allocates nothing: [xfer_none] while the
   block runs, a block index after a (taken) branch, [xfer_return] after
   Ret (with the value parked in [retv]). *)
let xfer_none = -2
let xfer_return = -1

type t = {
  mem : Memory.t;
  base : Bytes.t;  (* pristine image [mem] was last reset from *)
  hier : Hierarchy.t;
  timed : bool;  (* false: [hier] is the untouched untimed hierarchy *)
  mutable time : int;  (* issue time of the last issued bundle *)
  mutable dyn : int;
  mutable defs : int;  (* dynamic register slots written *)
  mutable mems : int;  (* dynamic memory accesses (loads + stores) *)
  mutable branches : int;  (* dynamic conditional branches *)
  mutable xreads : int;  (* operand reads crossing the cluster boundary *)
  mutable corrections : int;  (* faults repaired by voting sequences *)
  roles : int array;  (* dynamic count per role *)
  mutable depth : int;
  mutable tmax : int;  (* scratch for bundle issue-time computation *)
  mutable xfer : int;
  mutable retv : value option;
}

(* Each executor domain keeps one working memory arena — no
   [Memory.create] + [load_image] per run. The arena is private to the
   domain (pool workers run trials sequentially), and it is reset before
   any instruction executes, so trials cannot observe each other's
   stores. When consecutive runs share the same pristine image (the
   common case: one campaign, thousands of trials), the reset is
   [Memory.undo_writes] — O(pages the previous trial dirtied), not a
   full-arena blit. *)
type mem_scratch = { m : Memory.t; mutable m_base : Bytes.t }

let scratch_mem : mem_scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_memory base =
  let r = Domain.DLS.get scratch_mem in
  match !r with
  | Some s when Memory.size s.m = Bytes.length base ->
      if s.m_base == base then Memory.undo_writes s.m base
      else begin
        Memory.reset s.m base;
        s.m_base <- base
      end;
      s.m
  | _ ->
      let m = Memory.of_image base in
      r := Some { m; m_base = base };
      m

(* Same treatment for the cache model: building the three levels
   allocates capacity-sized way arrays, so each domain keeps one
   hierarchy per (geometry, perfect) and cold-restores it with
   [Hierarchy.reset] — field writes, no allocation — per run. *)
let scratch_hier :
    (Config.cache_config * bool * Hierarchy.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_hierarchy cc ~perfect =
  let r = Domain.DLS.get scratch_hier in
  match !r with
  | Some (cc', perfect', h) when perfect' = perfect && cc' = cc ->
      Hierarchy.reset h;
      h
  | _ ->
      let h = if perfect then Hierarchy.perfect cc else Hierarchy.create cc in
      r := Some (cc, perfect, h);
      h

(* An untimed run (Compile.run ~timed:false) never touches its
   hierarchy: no access, no reset, no restore. It still needs one for
   State.t and for the all-zero statistics its outcome reports, so each
   domain keeps a second slot, built once from the first geometry the
   domain sees — an untouched hierarchy reads zero whatever its
   geometry. A slot of its own, not the timed one above: interleaving
   timed golden runs with untimed trials then rebuilds neither. *)
let untimed_hier : Hierarchy.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let untimed_hierarchy cc =
  let r = Domain.DLS.get untimed_hier in
  match !r with
  | Some h -> h
  | None ->
      let h = Hierarchy.create cc in
      r := Some h;
      h

let fresh ?(perfect = false) ~timed ~image cache =
  {
    mem = scratch_memory image;
    base = image;
    hier =
      (if timed then scratch_hierarchy cache ~perfect
       else untimed_hierarchy cache);
    timed;
    time = -1;
    dyn = 0;
    defs = 0;
    mems = 0;
    branches = 0;
    xreads = 0;
    corrections = 0;
    roles = Array.make 4 0;
    depth = 0;
    tmax = 0;
    xfer = xfer_none;
    retv = None;
  }

(* A snapshot is only taken at an entry-function block-loop top with the
   call stack empty (depth = 1), where [xfer]/[retv]/[tmax] are dead:
   the block body overwrites them before any read. So the snapshot needs
   exactly the counters, the clock, the entry register file, the memory
   state, the cache state and the block index to resume at. An untimed
   machine never touched its hierarchy, so its snapshot copies no cache
   state at all ([cache = None]): that both saves the copy and records
   the mode, which a timed restore checks. The memory
   is a sparse delta over the (shared, never-mutated) pristine image, so
   a snapshot costs O(pages written so far), not O(arena). All captured
   fields are deep copies, never mutated after capture — safe to share
   read-only across pool domains. *)
type snapshot = {
  s_time : int;
  s_dyn : int;
  s_defs : int;
  s_mems : int;
  s_branches : int;
  s_xreads : int;
  s_corrections : int;
  s_roles : int array;
  block : int;  (* entry-function block index to resume at *)
  regs : regfile;
  mem_base : Bytes.t;  (* shared pristine image, not a copy *)
  mem_delta : Memory.delta;
  cache : Hierarchy.snapshot option;  (* None: taken on an untimed run *)
}

let snapshot st ~regs ~block =
  {
    s_time = st.time;
    s_dyn = st.dyn;
    s_defs = st.defs;
    s_mems = st.mems;
    s_branches = st.branches;
    s_xreads = st.xreads;
    s_corrections = st.corrections;
    s_roles = Array.copy st.roles;
    block;
    regs = copy_regfile regs;
    mem_base = st.base;
    mem_delta = Memory.delta st.mem;
    cache = (if st.timed then Some (Hierarchy.snapshot st.hier) else None);
  }

let restore ?(timed = true) ~cache snap =
  let hier =
    match (timed, snap.cache) with
    | false, _ -> untimed_hierarchy cache
    | true, Some c ->
        let h = scratch_hierarchy cache ~perfect:(Hierarchy.snapshot_perfect c) in
        Hierarchy.restore h c;
        h
    | true, None ->
        invalid_arg
          "State.restore: a timed restore needs a snapshot of a timed run; \
           this one was taken on an untimed run and holds no cache state"
  in
  let mem = scratch_memory snap.mem_base in
  Memory.apply_delta mem snap.mem_delta;
  let st =
    {
      mem;
      base = snap.mem_base;
      hier;
      timed;
      time = snap.s_time;
      dyn = snap.s_dyn;
      defs = snap.s_defs;
      mems = snap.s_mems;
      branches = snap.s_branches;
      xreads = snap.s_xreads;
      corrections = snap.s_corrections;
      roles = Array.copy snap.s_roles;
      (* Resuming inside the entry function's block loop: one live call
         frame, no pending transfer. *)
      depth = 1;
      tmax = 0;
      xfer = xfer_none;
      retv = None;
    }
  in
  (st, entry_regfile_of snap.regs)

(* Architectural equality with a snapshot, cheapest test first: the
   position, the predicates, the GP bytes, the FP values bit for bit
   (so -0.0 <> 0.0 and NaN payloads count), then memory. The scoreboard
   (ready times, homes), the clock, the cache and the event counters
   are not compared: from here on they only feed cycle and population
   accounting, never a value the program computes. *)
let matches st regs ~block snap =
  let r = snap.regs in
  let same_fp () =
    let n = Array.length regs.fpv in
    let i = ref 0 in
    while
      !i < n
      && Int64.equal
           (Int64.bits_of_float (Array.unsafe_get regs.fpv !i))
           (Int64.bits_of_float (Array.unsafe_get r.fpv !i))
    do
      incr i
    done;
    !i = n
  in
  st.dyn = snap.s_dyn && block = snap.block
  && st.base == snap.mem_base
  && Array.length regs.fpv = Array.length r.fpv
  && regs.prv = r.prv
  && Bytes.equal regs.gp r.gp
  && same_fp ()
  && Memory.matches st.mem ~base:st.base snap.mem_delta

let regfile_bytes rf =
  let words =
    Array.length rf.fpv + Array.length rf.prv
    + Array.length rf.gp_ready + Array.length rf.fp_ready
    + Array.length rf.pr_ready + Array.length rf.gp_home
    + Array.length rf.fp_home + Array.length rf.pr_home
  in
  Bytes.length rf.gp + (words * Sys.word_size / 8)

let snapshot_bytes snap =
  Memory.delta_bytes snap.mem_delta
  + Option.fold ~none:0 ~some:Hierarchy.snapshot_bytes snap.cache
  + regfile_bytes snap.regs
  + ((Array.length snap.s_roles + 8) * Sys.word_size / 8)
