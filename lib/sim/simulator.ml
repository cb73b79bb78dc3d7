module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Cond = Casted_ir.Cond
module Insn = Casted_ir.Insn
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Config = Casted_machine.Config
module Latency = Casted_machine.Latency
module Schedule = Casted_sched.Schedule
module Hierarchy = Casted_cache.Hierarchy

(* The engine exceptions and run-assembly machinery live in Runtime,
   shared with the closure-threaded compiled engine (Compile). *)
exception Halted = Runtime.Halted
exception Check_failed = Runtime.Check_failed
exception Out_of_fuel = Runtime.Out_of_fuel

(* All run-mutable machine state (counters, clock, control transfer,
   memory arena, cache model, register files) lives in State; the ctx
   only carries the run's immutable configuration plus the state. This
   split is what makes golden-prefix replay possible: State.snapshot at
   an entry-function block boundary captures the whole machine.
   [args_scratch] is the one exception: a reusable buffer for call
   arguments (consumed by the callee before it executes anything, so
   nested calls can reuse it freely) — the call path allocates no
   argument list. *)
type ctx = {
  d : Decode.t;
  config : Config.t;
  fuel : int;
  fault : Fault.t option;
  profile : Profile.t option;
  on_block : (State.t -> State.regfile -> int -> unit) option;
  st : State.t;
  mutable args_scratch : State.value array;
}

(* Operand access. *)

let reg_need ctx (fr : State.regfile) ~cluster r =
  let idx = Reg.idx r in
  let ready, home =
    match Reg.cls r with
    | Reg.Gp -> (fr.State.gp_ready.(idx), fr.State.gp_home.(idx))
    | Reg.Fp -> (fr.State.fp_ready.(idx), fr.State.fp_home.(idx))
    | Reg.Pr -> (fr.State.pr_ready.(idx), fr.State.pr_home.(idx))
  in
  if home >= 0 && home <> cluster then ready + ctx.config.Config.delay
  else ready

let write_gp (fr : State.regfile) r v ~ready ~home =
  let i = Reg.idx r in
  State.set_gp fr i v;
  fr.State.gp_ready.(i) <- max fr.State.gp_ready.(i) ready;
  fr.State.gp_home.(i) <- home

let write_fp (fr : State.regfile) r v ~ready ~home =
  let i = Reg.idx r in
  fr.State.fpv.(i) <- v;
  fr.State.fp_ready.(i) <- max fr.State.fp_ready.(i) ready;
  fr.State.fp_home.(i) <- home

let write_pr (fr : State.regfile) r v ~ready ~home =
  let i = Reg.idx r in
  fr.State.prv.(i) <- v;
  fr.State.pr_ready.(i) <- max fr.State.pr_ready.(i) ready;
  fr.State.pr_home.(i) <- home

let write_value fr r v ~ready ~home =
  match (Reg.cls r, v) with
  | Reg.Gp, State.V_gp x -> write_gp fr r x ~ready ~home
  | Reg.Fp, State.V_fp x -> write_fp fr r x ~ready ~home
  | Reg.Pr, State.V_pr x -> write_pr fr r x ~ready ~home
  | _ -> invalid_arg "Simulator: value class mismatch"

(* Cross-cluster-aware operand reads. Every value consumed from a
   register produced on the other cluster travels over the interconnect;
   the Xcluster fault model corrupts one such transfer in flight (the
   register file itself keeps the good value). *)

let xcluster_hit ctx =
  let st = ctx.st in
  st.State.xreads <- st.State.xreads + 1;
  match ctx.fault with
  | Some (Fault.Xcluster_flip { target_read; bit }) ->
      if st.State.xreads = target_read + 1 then Some bit else None
  | Some _ | None -> None

let use_gp ctx (fr : State.regfile) ~cluster r =
  let i = Reg.idx r in
  let v = State.get_gp fr i in
  let home = fr.State.gp_home.(i) in
  if home >= 0 && home <> cluster then
    match xcluster_hit ctx with
    | Some bit -> Fault.flip_int ~bit v
    | None -> v
  else v

let use_fp ctx (fr : State.regfile) ~cluster r =
  let i = Reg.idx r in
  let v = fr.State.fpv.(i) in
  let home = fr.State.fp_home.(i) in
  if home >= 0 && home <> cluster then
    match xcluster_hit ctx with
    | Some bit -> Fault.flip_float ~bit v
    | None -> v
  else v

let use_pr ctx (fr : State.regfile) ~cluster r =
  let i = Reg.idx r in
  let v = fr.State.prv.(i) in
  let home = fr.State.pr_home.(i) in
  if home >= 0 && home <> cluster then
    match xcluster_hit ctx with Some _ -> not v | None -> v
  else v

let use_value ctx fr ~cluster r =
  match Reg.cls r with
  | Reg.Gp -> State.V_gp (use_gp ctx fr ~cluster r)
  | Reg.Fp -> State.V_fp (use_fp ctx fr ~cluster r)
  | Reg.Pr -> State.V_pr (use_pr ctx fr ~cluster r)

(* Register-file fault injection: flip bit(s) of one dynamically written
   register slot, right after write-back. Slots are counted one by one,
   so the target is uniform over written slots regardless of how many
   slots an instruction defines. *)
let inject_slot ctx (fr : State.regfile) r =
  let st = ctx.st in
  st.State.defs <- st.State.defs + 1;
  let flip ~bit ~width =
    let i = Reg.idx r in
    match Reg.cls r with
    | Reg.Gp ->
        State.set_gp fr i (Fault.flip_burst ~bit ~width (State.get_gp fr i))
    | Reg.Fp ->
        fr.State.fpv.(i) <- Fault.flip_float_burst ~bit ~width fr.State.fpv.(i)
    | Reg.Pr -> fr.State.prv.(i) <- not fr.State.prv.(i)
  in
  match ctx.fault with
  | Some (Fault.Reg_flip { target_slot; bit })
    when st.State.defs = target_slot + 1 ->
      flip ~bit ~width:1
  | Some (Fault.Burst_flip { target_slot; bit; width })
    when st.State.defs = target_slot + 1 ->
      flip ~bit ~width
  | Some _ | None -> ()

(* Memory fault injection: after the n-th dynamic access, flip one bit
   of one byte inside the touched 64-byte line — a cache-line upset seen
   by every later read of that line. *)
let touch_mem ctx addr =
  let st = ctx.st in
  st.State.mems <- st.State.mems + 1;
  match ctx.fault with
  | Some (Fault.Mem_flip { target_access; offset; bit })
    when st.State.mems = target_access + 1 ->
      let line =
        Int64.logand addr (Int64.lognot (Int64.of_int (Fault.line_bytes - 1)))
      in
      Memory.flip_bit st.State.mem
        ~addr:(Int64.add line (Int64.of_int offset))
        ~bit
  | Some _ | None -> ()

let max_call_depth = Runtime.max_call_depth
let addr_int = Runtime.addr_int

(* The reference interpreter, over the pre-decoded form (Decode.t):
   branch targets and callees are indices, latencies and role indices
   are baked into each dinsn, and bundle issue runs as plain for-loops
   over state fields. Every production run executes on the compiled
   engine (Compile); this one direct reading of the ISA semantics is
   what the verify oracle, the fuzzer and the golden-fixture test hold
   that engine to, and the only engine with a per-block profile and a
   perfect-cache mode.

   [exec_func] consumes the first [nargs] entries of [ctx.args_scratch],
   written by the call site; they are bound into the fresh frame before
   any callee instruction runs, so a nested call overwriting the scratch
   cannot clobber a live argument. *)

let rec exec_func ctx (df : Decode.dfunc) ~nargs : State.value option =
  let st = ctx.st in
  st.State.depth <- st.State.depth + 1;
  if st.State.depth > max_call_depth then raise (Trap.Trap Trap.Stack_overflow);
  let func = df.Decode.func in
  let ready = st.State.time + 1 in
  let fr = State.make_regfile func ~time:ready in
  let params = df.Decode.params in
  if Array.length params <> nargs then
    invalid_arg "Simulator: call arity mismatch";
  let scratch = ctx.args_scratch in
  for i = 0 to nargs - 1 do
    write_value fr params.(i) scratch.(i) ~ready ~home:(-1)
  done;
  let result = exec_blocks ctx fr df ~start:0 in
  st.State.depth <- st.State.depth - 1;
  result

(* The block loop, factored out of exec_func so a replayed run can
   re-enter the entry function at an arbitrary block. At the loop top
   with depth = 1 (entry function, call stack empty) the machine state
   is fully described by State.t + the entry register file — that is
   where the snapshot hook fires, and where State.snapshot is valid. *)
and exec_blocks ctx (fr : State.regfile) (df : Decode.dfunc) ~start :
    State.value option =
  let st = ctx.st in
  let func = df.Decode.func in
  let blocks = df.Decode.blocks in
  let result = ref None in
  let cur = ref start in
  let running = ref true in
  while !running do
    (match ctx.on_block with
    | Some hook when st.State.depth = 1 -> hook st fr !cur
    | Some _ | None -> ());
    let b = blocks.(!cur) in
    (* The static schedule is authoritative for the in-order lockstep
       machine: bundle [i] may not issue before [block_start + at]
       (empty cycles, stripped at decode time, are real NOPs). Dynamic
       stalls (cache misses, cross-block operands) push it further. *)
    let block_start = st.State.time + 1 in
    st.State.xfer <- State.xfer_none;
    st.State.retv <- None;
    let bundles = b.Decode.bundles in
    for i = 0 to Array.length bundles - 1 do
      let db = bundles.(i) in
      exec_bundle ctx fr
        ~not_before:(block_start + db.Decode.at)
        db.Decode.slots
    done;
    (match ctx.profile with
    | Some profile ->
        Profile.record profile ~func:func.Func.name ~label:b.Decode.label
          ~cycles:(st.State.time + 1 - block_start)
    | None -> ());
    if st.State.xfer >= 0 then cur := st.State.xfer
    else if st.State.xfer = State.xfer_return then begin
      result := st.State.retv;
      running := false
    end
    else invalid_arg "Simulator: block finished without control transfer"
  done;
  !result

and exec_bundle ctx fr ~not_before (slots : Decode.dinsn array array) =
  (* Issue time: lockstep across clusters, so one maximum over all
     operand arrival times of the whole bundle. *)
  let st = ctx.st in
  let t0 = st.State.time + 1 in
  st.State.tmax <- (if not_before > t0 then not_before else t0);
  for cluster = 0 to Array.length slots - 1 do
    let insns = slots.(cluster) in
    for k = 0 to Array.length insns - 1 do
      let uses = insns.(k).Decode.uses in
      for u = 0 to Array.length uses - 1 do
        let need = reg_need ctx fr ~cluster uses.(u) in
        if need > st.State.tmax then st.State.tmax <- need
      done
    done
  done;
  let t = st.State.tmax in
  st.State.time <- t;
  (* Read phase: all operands (including loaded memory) are sampled
     before any write of this bundle lands. *)
  for cluster = 0 to Array.length slots - 1 do
    let insns = slots.(cluster) in
    for k = 0 to Array.length insns - 1 do
      exec_insn ctx fr ~cluster ~t insns.(k)
    done
  done

and exec_insn ctx fr ~cluster ~t (di : Decode.dinsn) =
  let st = ctx.st in
  st.State.dyn <- st.State.dyn + 1;
  if st.State.dyn > ctx.fuel then raise Out_of_fuel;
  st.State.roles.(di.Decode.role) <- st.State.roles.(di.Decode.role) + 1;
  let uses = di.Decode.uses in
  let defs = di.Decode.defs in
  let latency = di.Decode.latency in
  (* Two-operand arms read left to right through explicit lets: OCaml
     evaluates function arguments in an unspecified order, and the
     cross-cluster read counter (the Xcluster fault's trigger) must tick
     in a well-defined order that the compiled engine can mirror. *)
  (match di.Decode.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
  | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
  | Opcode.Sra ->
      let a = use_gp ctx fr ~cluster uses.(0) in
      let b = use_gp ctx fr ~cluster uses.(1) in
      write_gp fr defs.(0)
        (Alu.int_binop di.Decode.op a b)
        ~ready:(t + latency) ~home:cluster
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai ->
      write_gp fr defs.(0)
        (Alu.int_immop di.Decode.op
           (use_gp ctx fr ~cluster uses.(0))
           di.Decode.imm)
        ~ready:(t + latency) ~home:cluster
  | Opcode.Mov ->
      write_gp fr defs.(0)
        (use_gp ctx fr ~cluster uses.(0))
        ~ready:(t + latency) ~home:cluster
  | Opcode.Movi ->
      write_gp fr defs.(0) di.Decode.imm ~ready:(t + latency) ~home:cluster
  | Opcode.Cmp c ->
      let a = use_gp ctx fr ~cluster uses.(0) in
      let b = use_gp ctx fr ~cluster uses.(1) in
      write_pr fr defs.(0) (Cond.eval_int c a b) ~ready:(t + latency)
        ~home:cluster
  | Opcode.Cmpi c ->
      write_pr fr defs.(0)
        (Cond.eval_int c (use_gp ctx fr ~cluster uses.(0)) di.Decode.imm)
        ~ready:(t + latency) ~home:cluster
  | Opcode.Sel ->
      let p = use_pr ctx fr ~cluster uses.(0) in
      let v =
        if p then use_gp ctx fr ~cluster uses.(1)
        else use_gp ctx fr ~cluster uses.(2)
      in
      (* A voting Sel (role Check, emitted by the TMR pass as
         [v := p ? s1 : r]) repairs a diverged copy in both directions:
         agreeing replicas outvoting the master (p true, v <> r), or
         the master outvoting a corrupted replica (p false — replicas
         never disagree in a fault-free run). Count the repair; the
         master's raw register cell is read directly so the
         cross-cluster accounting stays exactly as without TMR. *)
      if
        di.Decode.role = 2 (* Insn.Check *)
        && ((not p) || not (Int64.equal v (State.get_gp fr (Reg.idx uses.(2)))))
      then st.State.corrections <- st.State.corrections + 1;
      write_gp fr defs.(0) v ~ready:(t + latency) ~home:cluster
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv ->
      let a = use_fp ctx fr ~cluster uses.(0) in
      let b = use_fp ctx fr ~cluster uses.(1) in
      write_fp fr defs.(0)
        (Alu.float_binop di.Decode.op a b)
        ~ready:(t + latency) ~home:cluster
  | Opcode.Fmov ->
      write_fp fr defs.(0)
        (use_fp ctx fr ~cluster uses.(0))
        ~ready:(t + latency) ~home:cluster
  | Opcode.Fmovi ->
      write_fp fr defs.(0) di.Decode.fimm ~ready:(t + latency) ~home:cluster
  | Opcode.Fcmp c ->
      let a = use_fp ctx fr ~cluster uses.(0) in
      let b = use_fp ctx fr ~cluster uses.(1) in
      write_pr fr defs.(0) (Cond.eval_float c a b) ~ready:(t + latency)
        ~home:cluster
  | Opcode.Itof ->
      write_fp fr defs.(0)
        (Int64.to_float (use_gp ctx fr ~cluster uses.(0)))
        ~ready:(t + latency) ~home:cluster
  | Opcode.Ftoi ->
      let f = use_fp ctx fr ~cluster uses.(0) in
      let v =
        if Float.is_nan f then 0L else Int64.of_float (Float.trunc f)
      in
      write_gp fr defs.(0) v ~ready:(t + latency) ~home:cluster
  | Opcode.Ld w | Opcode.Lds w ->
      let signed =
        match di.Decode.op with Opcode.Lds _ -> true | _ -> false
      in
      let addr = Int64.add (use_gp ctx fr ~cluster uses.(0)) di.Decode.imm in
      let latency =
        Hierarchy.access st.State.hier ~addr:(addr_int addr) ~write:false
      in
      let v = Memory.read st.State.mem ~addr ~width:w ~signed in
      touch_mem ctx addr;
      write_gp fr defs.(0) v ~ready:(t + latency) ~home:cluster
  | Opcode.Fld ->
      let addr = Int64.add (use_gp ctx fr ~cluster uses.(0)) di.Decode.imm in
      let latency =
        Hierarchy.access st.State.hier ~addr:(addr_int addr) ~write:false
      in
      let v = Memory.read_float st.State.mem ~addr in
      touch_mem ctx addr;
      write_fp fr defs.(0) v ~ready:(t + latency) ~home:cluster
  | Opcode.St w ->
      let addr = Int64.add (use_gp ctx fr ~cluster uses.(1)) di.Decode.imm in
      Memory.write st.State.mem ~addr ~width:w
        (use_gp ctx fr ~cluster uses.(0));
      ignore
        (Hierarchy.access st.State.hier ~addr:(addr_int addr) ~write:true);
      touch_mem ctx addr
  | Opcode.Fst ->
      let addr = Int64.add (use_gp ctx fr ~cluster uses.(1)) di.Decode.imm in
      Memory.write_float st.State.mem ~addr (use_fp ctx fr ~cluster uses.(0));
      ignore
        (Hierarchy.access st.State.hier ~addr:(addr_int addr) ~write:true);
      touch_mem ctx addr
  | Opcode.Chk ->
      let ok =
        match Reg.cls uses.(0) with
        | Reg.Gp ->
            let a = use_gp ctx fr ~cluster uses.(0) in
            let b = use_gp ctx fr ~cluster uses.(1) in
            Int64.equal a b
        | Reg.Fp ->
            let a = use_fp ctx fr ~cluster uses.(0) in
            let b = use_fp ctx fr ~cluster uses.(1) in
            Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        | Reg.Pr ->
            let a = use_pr ctx fr ~cluster uses.(0) in
            let b = use_pr ctx fr ~cluster uses.(1) in
            Bool.equal a b
      in
      if not ok then raise (Check_failed di.Decode.id)
  | Opcode.Br -> st.State.xfer <- di.Decode.target
  | Opcode.Brc flag ->
      let taken = Bool.equal (use_pr ctx fr ~cluster uses.(0)) flag in
      st.State.branches <- st.State.branches + 1;
      let taken =
        match ctx.fault with
        | Some (Fault.Branch_flip { target_branch })
          when st.State.branches = target_branch + 1 ->
            not taken
        | Some _ | None -> taken
      in
      st.State.xfer <- (if taken then di.Decode.target else di.Decode.target2)
  | Opcode.Ret ->
      let v =
        if Array.length uses > 0 then
          Some (use_value ctx fr ~cluster uses.(0))
        else None
      in
      st.State.xfer <- State.xfer_return;
      st.State.retv <- v
  | Opcode.Halt ->
      let code =
        if Array.length uses > 0 then
          Int64.to_int (use_gp ctx fr ~cluster uses.(0))
        else 0
      in
      raise (Halted code)
  | Opcode.Call ->
      let callee = ctx.d.Decode.funcs.(di.Decode.target) in
      let nargs = Array.length uses in
      if Array.length ctx.args_scratch < nargs then
        ctx.args_scratch <- Array.make (max 8 nargs) (State.V_gp 0L);
      let scratch = ctx.args_scratch in
      for i = 0 to nargs - 1 do
        scratch.(i) <- use_value ctx fr ~cluster uses.(i)
      done;
      (* The callee drives xfer/retv for its own blocks; restore the
         caller's pending transfer around the nested execution. *)
      let saved_xfer = st.State.xfer in
      let saved_retv = st.State.retv in
      let result = exec_func ctx callee ~nargs in
      st.State.xfer <- saved_xfer;
      st.State.retv <- saved_retv;
      (match (Array.length defs, result) with
      | 0, _ -> ()
      | 1, Some v ->
          write_value fr defs.(0) v ~ready:(st.State.time + 1) ~home:cluster
      | 1, None -> invalid_arg "Simulator: call expected a return value"
      | _ -> invalid_arg "Simulator: call with multiple defs")
  | Opcode.Cpt ->
      (* Region-boundary marker: the checkpoint is the enclosing block's
         loop top (run_recovering); executing the marker itself does
         nothing. *)
      ()
  | Opcode.Nop -> ());
  for i = 0 to Array.length defs - 1 do
    inject_slot ctx fr defs.(i)
  done

(* The reference entry point: a fresh machine, or one restored from a
   golden-prefix snapshot (re-entering the entry function's block loop
   at the captured block). Run assembly is shared with the compiled
   engine through Runtime, so the engines can only differ through
   State itself. *)
let reference ?fault ?(fuel = max_int) ?(perfect_cache = false) ?profile
    ?(with_mem_digest = false) ?on_block ?snapshot (d : Decode.t) =
  let cache = d.Decode.config.Config.cache in
  let entry = d.Decode.funcs.(d.Decode.entry) in
  let st, go =
    match snapshot with
    | None ->
        ( State.fresh ~perfect:perfect_cache ~timed:true ~image:d.Decode.image
            cache,
         fun ctx -> exec_func ctx entry ~nargs:0)
    | Some snap ->
        let st, fr = State.restore ~cache snap in
        (st, fun ctx -> exec_blocks ctx fr entry ~start:snap.State.block)
  in
  let ctx =
    { d; config = d.Decode.config; fuel; fault; profile; on_block; st;
      args_scratch = [||] }
  in
  let termination =
    Runtime.termination_of (fun () ->
        let (_ : State.value option) = go ctx in
        (* Entry returned instead of halting: treat as exit 0. *)
        Outcome.Exit 0)
  in
  Runtime.finish ~config:ctx.config ~output_base:d.Decode.output_base
    ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
    ~with_mem_digest ~timed:true st termination

(* Production runs: the closure-threaded engine (Compile). *)
let run_compiled ?fault ?fuel ?with_mem_digest p =
  Compile.run ?fault ?fuel ?with_mem_digest p

let run_compiled_replayed ?fault ?fuel ?with_mem_digest ~snapshot p =
  Compile.run ?fault ?fuel ?with_mem_digest ~snapshot p

let run_decoded ?fault ?fuel ?with_mem_digest d =
  Compile.run ?fault ?fuel ?with_mem_digest (Compile.of_decoded d)

let run_recovering ?fault ?fuel ?with_mem_digest ~retry_budget d =
  Compile.run ?fault ?fuel ?with_mem_digest ~retry_budget
    (Compile.of_decoded d)

let run ?fault ?fuel ?with_mem_digest sched =
  run_decoded ?fault ?fuel ?with_mem_digest (Decode.of_schedule sched)
