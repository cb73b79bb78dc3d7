(* Stage-2 compilation: lower a pre-decoded program (Decode.t) into
   arrays of pre-bound OCaml closures — classic threaded code. Every
   per-instruction decision the interpreter makes dynamically (the
   ~40-arm Opcode match, Reg.cls dispatch per operand, latency lookup,
   immediate/target fetch, fault-site option matching, array bounds
   checks) is resolved here, once, at compile time. What remains at run
   time is a flat array walk: one indirect call per dynamic instruction
   into a closure that reads its operands from unsafe, compile-proven
   indices, computes, and writes back.

   This is the engine every production run executes on: golden runs,
   replay capture, campaign trials and rollback recovery. The decoded
   interpreter (Simulator.reference) stays as the reference it is
   checked against: both engines mutate the same State.t with the same
   event ordering — dyn / fuel / role accounting first, operand reads
   left to right, memory touch after the cache access and the load
   itself, def-slot injection after the write-back, branch-counter
   increment after the predicate read — and the verify oracle holds
   every production path to the reference over the whole example
   matrix.

   The only hook is at block boundaries: [on_block] fires at each
   entry-function block top (call depth 1), exactly where the
   interpreter fires its own, so replay capture and rollback checkpoints
   see the same program points on both engines. The per-instruction
   closures never test it.

   Fault hooks are pre-extracted into plain int "arms" on the compile
   context: an event counter fires its fault when it equals the arm
   after increment, and arm 0 means never (counters are >= 1 after
   increment). This removes every per-event [Fault.t option] match from
   the hot loop.

   Malformed programs (register indices out of the frame proven at
   compile time, non-canonical operand shapes) compile to poison
   closures that raise at execution time — the same observable point
   where the interpreter's own bounds checks would have raised — so
   compiling a bad program is harmless until it actually runs. *)

module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Cond = Casted_ir.Cond
module Func = Casted_ir.Func
module Config = Casted_machine.Config
module Hierarchy = Casted_cache.Hierarchy

type cctx = {
  st : State.t;
  funcs : cfunc array;
  fuel : int;
  delay : int;  (* cross-cluster interconnect delay, from the config *)
  (* Pre-extracted fault triggers: counter value (post-increment) at
     which the single armed fault site fires; 0 = never. *)
  def_arm : int;
  def_bit : int;
  def_width : int;
  mem_arm : int;
  mem_off : int;
  mem_bit : int;
  br_arm : int;
  x_arm : int;
  x_bit : int;
  (* Called at every entry-function block top (depth 1). *)
  on_block : (State.t -> State.regfile -> int -> unit) option;
  (* Return-value scratch: Ret parks the value here (class-coded, -1 =
     none), Call consumes it — no [State.value option] allocation. *)
  mutable ret_cls : int;
  mutable ret_gp : int64;
  mutable ret_fp : float;
  mutable ret_pr : bool;
}

and cinsn = cctx -> State.regfile -> int -> unit

and cbundle = {
  c_at : int;  (* earliest issue offset within the block *)
  c_oob : bool;  (* an issue-scan operand is out of frame: raise *)
  (* Issue-scan queues, one per register class: each entry packs
     [(reg_idx lsl 16) lor cluster] so the scan is a flat int walk. *)
  q_gp : int array;
  q_fp : int array;
  q_pr : int array;
  c_body : cinsn array;  (* flattened (cluster, slot) order *)
}

and cblock = { c_bundles : cbundle array }
and cfunc = { c_func : Func.t; c_blocks : cblock array }

type t = { d : Decode.t; cfuncs : cfunc array }

let decoded t = t.d

let oob = "index out of bounds"

(* Per-instruction bookkeeping shared by every closure: dynamic count,
   fuel, role tally. Mirrors the interpreter's exec_insn preamble. *)
let pre c role =
  let st = c.st in
  let dyn = st.State.dyn + 1 in
  st.State.dyn <- dyn;
  if dyn > c.fuel then raise Runtime.Out_of_fuel;
  let roles = st.State.roles in
  Array.unsafe_set roles role (Array.unsafe_get roles role + 1)

(* Operand reads with cross-cluster accounting; indices are proven in
   bounds at compile time. *)

let read_gp c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.gp i in
  let home = Array.unsafe_get fr.State.gp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then Fault.flip_int ~bit:c.x_bit v else v
  end
  else v

let read_fp c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.fpv i in
  let home = Array.unsafe_get fr.State.fp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then Fault.flip_float ~bit:c.x_bit v else v
  end
  else v

let read_pr c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.prv i in
  let home = Array.unsafe_get fr.State.pr_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then not v else v
  end
  else v

(* Write-back: value, ready time (monotone max), producing cluster. *)

let wr_gp (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.gp i v;
  if ready > Array.unsafe_get fr.State.gp_ready i then
    Array.unsafe_set fr.State.gp_ready i ready;
  Array.unsafe_set fr.State.gp_home i home

let wr_fp (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.fpv i v;
  if ready > Array.unsafe_get fr.State.fp_ready i then
    Array.unsafe_set fr.State.fp_ready i ready;
  Array.unsafe_set fr.State.fp_home i home

let wr_pr (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.prv i v;
  if ready > Array.unsafe_get fr.State.pr_ready i then
    Array.unsafe_set fr.State.pr_ready i ready;
  Array.unsafe_set fr.State.pr_home i home

(* Def-slot fault injection, right after write-back. *)

let inject_gp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.gp i
      (Fault.flip_burst ~bit:c.def_bit ~width:c.def_width
         (Array.unsafe_get fr.State.gp i))

let inject_fp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.fpv i
      (Fault.flip_float_burst ~bit:c.def_bit ~width:c.def_width
         (Array.unsafe_get fr.State.fpv i))

let inject_pr c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.prv i (not (Array.unsafe_get fr.State.prv i))

let touch_mem c addr =
  let st = c.st in
  let n = st.State.mems + 1 in
  st.State.mems <- n;
  if n = c.mem_arm then begin
    let line =
      Int64.logand addr (Int64.lognot (Int64.of_int (Fault.line_bytes - 1)))
    in
    Memory.flip_bit st.State.mem
      ~addr:(Int64.add line (Int64.of_int c.mem_off))
      ~bit:c.mem_bit
  end

(* Issue-time scan over one packed queue: fold cross-cluster-delayed
   operand arrival times into st.tmax. *)
let scan_q st (ready : int array) (home : int array) delay (q : int array) =
  for i = 0 to Array.length q - 1 do
    let p = Array.unsafe_get q i in
    let idx = p lsr 16 in
    let cl = p land 0xffff in
    let r = Array.unsafe_get ready idx in
    let h = Array.unsafe_get home idx in
    let need = if h >= 0 && h <> cl then r + delay else r in
    if need > st.State.tmax then st.State.tmax <- need
  done

(* The block loop — same two-phase bundle semantics as the interpreter:
   compute the lockstep issue time over every operand of the whole
   bundle, then execute the flattened body at that time. Tail-recursive,
   allocation-free. The block-top hook fires where the interpreter's
   does: before the block runs, only with the call stack empty. *)
let rec exec_cblocks c (fr : State.regfile) (blocks : cblock array) cur =
  let st = c.st in
  (match c.on_block with
  | Some hook when st.State.depth = 1 -> hook st fr cur
  | Some _ | None -> ());
  let b = Array.unsafe_get blocks cur in
  let block_start = st.State.time + 1 in
  st.State.xfer <- State.xfer_none;
  let bundles = b.c_bundles in
  for i = 0 to Array.length bundles - 1 do
    let cb = Array.unsafe_get bundles i in
    if cb.c_oob then invalid_arg oob;
    let t0 = st.State.time + 1 in
    let nb = block_start + cb.c_at in
    st.State.tmax <- (if nb > t0 then nb else t0);
    scan_q st fr.State.gp_ready fr.State.gp_home c.delay cb.q_gp;
    scan_q st fr.State.fp_ready fr.State.fp_home c.delay cb.q_fp;
    scan_q st fr.State.pr_ready fr.State.pr_home c.delay cb.q_pr;
    let t = st.State.tmax in
    st.State.time <- t;
    let body = cb.c_body in
    for k = 0 to Array.length body - 1 do
      (Array.unsafe_get body k) c fr t
    done
  done;
  if st.State.xfer >= 0 then exec_cblocks c fr blocks st.State.xfer
  else if st.State.xfer = State.xfer_return then ()
  else invalid_arg "Simulator: block finished without control transfer"

(* ---- Instruction compilation ---- *)

(* Argument binders for Call: read one caller operand (cross-cluster
   accounted), write it into the fresh callee frame. Compiled per formal
   parameter so the call site does no class dispatch. *)
type binder = cctx -> State.regfile -> State.regfile -> int -> unit

let compile_binder ~cluster ~caller:(cngp, cnfp, cnpr)
    ~callee:(kngp, knfp, knpr) (u : Reg.t) (p : Reg.t) : binder =
  let ui = Reg.idx u and pi = Reg.idx p in
  match (Reg.cls u, Reg.cls p) with
  | Reg.Gp, Reg.Gp when ui < cngp && pi < kngp ->
      fun c caller callee ready ->
        let v = read_gp c caller ui cluster in
        wr_gp callee pi v ready (-1)
  | Reg.Fp, Reg.Fp when ui < cnfp && pi < knfp ->
      fun c caller callee ready ->
        let v = read_fp c caller ui cluster in
        wr_fp callee pi v ready (-1)
  | Reg.Pr, Reg.Pr when ui < cnpr && pi < knpr ->
      fun c caller callee ready ->
        let v = read_pr c caller ui cluster in
        wr_pr callee pi v ready (-1)
  | (Reg.Gp, Reg.Gp) | (Reg.Fp, Reg.Fp) | (Reg.Pr, Reg.Pr) ->
      fun _ _ _ _ -> invalid_arg oob
  | _ -> fun _ _ _ _ -> invalid_arg "Simulator: value class mismatch"

let compile_insn (d : Decode.t) ~sizes:(ngp, nfp, npr) ~cluster
    (di : Decode.dinsn) : cinsn =
  let role = di.Decode.role in
  let lat = di.Decode.latency in
  let uses = di.Decode.uses and defs = di.Decode.defs in
  let nu = Array.length uses and nd = Array.length defs in
  let u i = Reg.idx uses.(i) in
  let poison msg : cinsn = fun c _ _ -> pre c role; invalid_arg msg in
  (* Canonical single-def shapes, checked against the frame the written
     array actually lives in AND the declared class (injection dispatches
     on the declared class, the write on the arm's class — they agree in
     every pipeline-built program). *)
  let gp_def () = nd = 1 && Reg.cls defs.(0) = Reg.Gp && Reg.idx defs.(0) < ngp in
  let fp_def () = nd = 1 && Reg.cls defs.(0) = Reg.Fp && Reg.idx defs.(0) < nfp in
  let pr_def () = nd = 1 && Reg.cls defs.(0) = Reg.Pr && Reg.idx defs.(0) < npr in
  let no_def () = nd = 0 in
  match di.Decode.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
  | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
  | Opcode.Sra ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f =
          match di.Decode.op with
          | Opcode.Add -> Int64.add
          | Opcode.Sub -> Int64.sub
          | Opcode.Mul -> Int64.mul
          | Opcode.Div -> Alu.sdiv
          | Opcode.Rem -> Alu.srem
          | Opcode.And -> Int64.logand
          | Opcode.Or -> Int64.logor
          | Opcode.Xor -> Int64.logxor
          | Opcode.Shl -> fun x y -> Int64.shift_left x (Alu.shift_amount y)
          | Opcode.Shr ->
              fun x y -> Int64.shift_right_logical x (Alu.shift_amount y)
          | _ -> fun x y -> Int64.shift_right x (Alu.shift_amount y)
        in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          let y = read_gp c fr b cluster in
          wr_gp fr dd (f x y) (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let f =
          match di.Decode.op with
          | Opcode.Addi -> Int64.add
          | Opcode.Muli -> Int64.mul
          | Opcode.Andi -> Int64.logand
          | Opcode.Xori -> Int64.logxor
          | Opcode.Shli -> fun x y -> Int64.shift_left x (Alu.shift_amount y)
          | Opcode.Shri ->
              fun x y -> Int64.shift_right_logical x (Alu.shift_amount y)
          | _ -> fun x y -> Int64.shift_right x (Alu.shift_amount y)
        in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          wr_gp fr dd (f x imm) (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Mov ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = read_gp c fr a cluster in
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Movi ->
      if not (gp_def ()) then poison oob
      else
        let dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        fun c fr t ->
          pre c role;
          wr_gp fr dd imm (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Cmp cond ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && pr_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f = Cond.eval_int cond in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          let y = read_gp c fr b cluster in
          wr_pr fr dd (f x y) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Cmpi cond ->
      if not (nu >= 1 && u 0 < ngp && pr_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let f = Cond.eval_int cond in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          wr_pr fr dd (f x imm) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Sel ->
      if
        not
          (nu >= 3 && u 0 < npr && u 1 < ngp && u 2 < ngp && gp_def ())
      then poison oob
      else
        let up = u 0 and u1 = u 1 and u2 = u 2 and dd = Reg.idx defs.(0) in
        let voting = role = 2 (* Insn.Check: TMR majority vote *) in
        fun c fr t ->
          pre c role;
          let p = read_pr c fr up cluster in
          let v =
            if p then read_gp c fr u1 cluster else read_gp c fr u2 cluster
          in
          if
            voting
            && ((not p)
               || not (Int64.equal v (Array.unsafe_get fr.State.gp u2)))
          then c.st.State.corrections <- c.st.State.corrections + 1;
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv ->
      if not (nu >= 2 && u 0 < nfp && u 1 < nfp && fp_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f =
          match di.Decode.op with
          | Opcode.Fadd -> ( +. )
          | Opcode.Fsub -> ( -. )
          | Opcode.Fmul -> ( *. )
          | _ -> ( /. )
        in
        fun c fr t ->
          pre c role;
          let x = read_fp c fr a cluster in
          let y = read_fp c fr b cluster in
          wr_fp fr dd (f x y) (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fmov ->
      if not (nu >= 1 && u 0 < nfp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = read_fp c fr a cluster in
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fmovi ->
      if not (fp_def ()) then poison oob
      else
        let dd = Reg.idx defs.(0) and fimm = di.Decode.fimm in
        fun c fr t ->
          pre c role;
          wr_fp fr dd fimm (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fcmp cond ->
      if not (nu >= 2 && u 0 < nfp && u 1 < nfp && pr_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f = Cond.eval_float cond in
        fun c fr t ->
          pre c role;
          let x = read_fp c fr a cluster in
          let y = read_fp c fr b cluster in
          wr_pr fr dd (f x y) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Itof ->
      if not (nu >= 1 && u 0 < ngp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = Int64.to_float (read_gp c fr a cluster) in
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Ftoi ->
      if not (nu >= 1 && u 0 < nfp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let f = read_fp c fr a cluster in
          let v =
            if Float.is_nan f then 0L else Int64.of_float (Float.trunc f)
          in
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Ld w | Opcode.Lds w ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let signed =
          match di.Decode.op with Opcode.Lds _ -> true | _ -> false
        in
        fun c fr t ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr a cluster) imm in
          let lat =
            Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
              ~write:false
          in
          let v = Memory.read st.State.mem ~addr ~width:w ~signed in
          touch_mem c addr;
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Fld ->
      if not (nu >= 1 && u 0 < ngp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        fun c fr t ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr a cluster) imm in
          let lat =
            Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
              ~write:false
          in
          let v = Memory.read_float st.State.mem ~addr in
          touch_mem c addr;
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.St w ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        fun c fr _ ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr aaddr cluster) imm in
          let v = read_gp c fr aval cluster in
          Memory.write st.State.mem ~addr ~width:w v;
          ignore
            (Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
               ~write:true);
          touch_mem c addr
  | Opcode.Fst ->
      if not (nu >= 2 && u 0 < nfp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        fun c fr _ ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr aaddr cluster) imm in
          let v = read_fp c fr aval cluster in
          Memory.write_float st.State.mem ~addr v;
          ignore
            (Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
               ~write:true);
          touch_mem c addr
  | Opcode.Chk ->
      if not (nu >= 2 && no_def ()) then poison oob
      else
        let id = di.Decode.id in
        (* Chk dispatches on the declared class of its first operand;
           both operands are then read through that class's file. *)
        (match Reg.cls uses.(0) with
        | Reg.Gp ->
            if not (u 0 < ngp && u 1 < ngp) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_gp c fr a cluster in
                let y = read_gp c fr b cluster in
                if not (Int64.equal x y) then raise (Runtime.Check_failed id)
        | Reg.Fp ->
            if not (u 0 < nfp && u 1 < nfp) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_fp c fr a cluster in
                let y = read_fp c fr b cluster in
                if
                  not
                    (Int64.equal (Int64.bits_of_float x)
                       (Int64.bits_of_float y))
                then raise (Runtime.Check_failed id)
        | Reg.Pr ->
            if not (u 0 < npr && u 1 < npr) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_pr c fr a cluster in
                let y = read_pr c fr b cluster in
                if not (Bool.equal x y) then raise (Runtime.Check_failed id))
  | Opcode.Br ->
      if not (no_def ()) then poison oob
      else
        let target = di.Decode.target in
        fun c _ _ ->
          pre c role;
          c.st.State.xfer <- target
  | Opcode.Brc flag ->
      if not (nu >= 1 && u 0 < npr && no_def ()) then poison oob
      else
        let a = u 0 in
        let target = di.Decode.target and target2 = di.Decode.target2 in
        fun c fr _ ->
          pre c role;
          let taken = Bool.equal (read_pr c fr a cluster) flag in
          let st = c.st in
          let n = st.State.branches + 1 in
          st.State.branches <- n;
          let taken = if n = c.br_arm then not taken else taken in
          st.State.xfer <- (if taken then target else target2)
  | Opcode.Ret ->
      if not (no_def ()) then poison oob
      else if nu = 0 then
        fun c _ _ ->
          pre c role;
          c.ret_cls <- -1;
          c.st.State.xfer <- State.xfer_return
      else (
        match Reg.cls uses.(0) with
        | Reg.Gp ->
            if not (u 0 < ngp) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_gp c fr a cluster in
                c.ret_cls <- 0;
                c.ret_gp <- v;
                c.st.State.xfer <- State.xfer_return
        | Reg.Fp ->
            if not (u 0 < nfp) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_fp c fr a cluster in
                c.ret_cls <- 1;
                c.ret_fp <- v;
                c.st.State.xfer <- State.xfer_return
        | Reg.Pr ->
            if not (u 0 < npr) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_pr c fr a cluster in
                c.ret_cls <- 2;
                c.ret_pr <- v;
                c.st.State.xfer <- State.xfer_return)
  | Opcode.Halt ->
      if nu = 0 then fun c _ _ ->
        pre c role;
        raise (Runtime.Halted 0)
      else if not (u 0 < ngp) then poison oob
      else
        let a = u 0 in
        fun c fr _ ->
          pre c role;
          let v = read_gp c fr a cluster in
          raise (Runtime.Halted (Int64.to_int v))
  | Opcode.Call ->
      let target = di.Decode.target in
      let callee = d.Decode.funcs.(target) in
      let kfunc = callee.Decode.func in
      let kngp = max 1 (Func.reg_count kfunc Reg.Gp) in
      let knfp = max 1 (Func.reg_count kfunc Reg.Fp) in
      let knpr = max 1 (Func.reg_count kfunc Reg.Pr) in
      let params = Array.of_list kfunc.Func.params in
      if nd > 1 then poison "Simulator: call with multiple defs"
      else if Array.length params <> nu then
        poison "Simulator: call arity mismatch"
      else
        let binders =
          Array.init nu (fun i ->
              compile_binder ~cluster ~caller:(ngp, nfp, npr)
                ~callee:(kngp, knfp, knpr) uses.(i) params.(i))
        in
        (* def_kind: -1 none, 0/1/2 = Gp/Fp/Pr destination. *)
        let def_kind, dd =
          if nd = 0 then (-1, 0)
          else
            let r = defs.(0) in
            let i = Reg.idx r in
            (match Reg.cls r with
            | Reg.Gp -> if i < ngp then (0, i) else (-2, 0)
            | Reg.Fp -> if i < nfp then (1, i) else (-2, 0)
            | Reg.Pr -> if i < npr then (2, i) else (-2, 0))
        in
        if def_kind = -2 then poison oob
        else
          fun c fr _ ->
            pre c role;
            let st = c.st in
            (* The callee drives xfer and the return scratch for its own
               blocks; restore the caller's pending values around the
               nested execution. *)
            let saved_xfer = st.State.xfer in
            let saved_cls = c.ret_cls in
            let saved_gp = c.ret_gp in
            let saved_fp = c.ret_fp in
            let saved_pr = c.ret_pr in
            let ready = st.State.time + 1 in
            let nfr = State.make_regfile kfunc ~time:ready in
            for i = 0 to Array.length binders - 1 do
              (Array.unsafe_get binders i) c fr nfr ready
            done;
            st.State.depth <- st.State.depth + 1;
            if st.State.depth > Runtime.max_call_depth then
              raise (Trap.Trap Trap.Stack_overflow);
            exec_cblocks c nfr (Array.unsafe_get c.funcs target).c_blocks 0;
            st.State.depth <- st.State.depth - 1;
            let rcls = c.ret_cls in
            let rgp = c.ret_gp in
            let rfp = c.ret_fp in
            let rpr = c.ret_pr in
            c.ret_cls <- saved_cls;
            c.ret_gp <- saved_gp;
            c.ret_fp <- saved_fp;
            c.ret_pr <- saved_pr;
            st.State.xfer <- saved_xfer;
            if def_kind >= 0 then begin
              if rcls < 0 then
                invalid_arg "Simulator: call expected a return value";
              if rcls <> def_kind then
                invalid_arg "Simulator: value class mismatch";
              let wready = st.State.time + 1 in
              match def_kind with
              | 0 ->
                  wr_gp fr dd rgp wready cluster;
                  inject_gp c fr dd
              | 1 ->
                  wr_fp fr dd rfp wready cluster;
                  inject_fp c fr dd
              | _ ->
                  wr_pr fr dd rpr wready cluster;
                  inject_pr c fr dd
            end
  | Opcode.Cpt | Opcode.Nop ->
      if not (no_def ()) then poison oob else fun c _ _ -> pre c role

let compile_bundle (d : Decode.t) ~sizes (db : Decode.dbundle) : cbundle =
  let ngp, nfp, npr = sizes in
  let qg = ref [] and qf = ref [] and qp = ref [] in
  let bad = ref false in
  Array.iteri
    (fun cluster insns ->
      Array.iter
        (fun (di : Decode.dinsn) ->
          Array.iter
            (fun r ->
              let i = Reg.idx r in
              let pk = (i lsl 16) lor cluster in
              match Reg.cls r with
              | Reg.Gp -> if i >= ngp then bad := true else qg := pk :: !qg
              | Reg.Fp -> if i >= nfp then bad := true else qf := pk :: !qf
              | Reg.Pr -> if i >= npr then bad := true else qp := pk :: !qp)
            di.Decode.uses)
        insns)
    db.Decode.slots;
  if Array.length db.Decode.slots > 0x10000 then bad := true;
  let arr l = Array.of_list (List.rev l) in
  let body =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun cluster insns ->
              Array.map (compile_insn d ~sizes ~cluster) insns)
            db.Decode.slots))
  in
  {
    c_at = db.Decode.at;
    c_oob = !bad;
    q_gp = arr !qg;
    q_fp = arr !qf;
    q_pr = arr !qp;
    c_body = body;
  }

let of_decoded (d : Decode.t) : t =
  Casted_obs.Trace.with_span ~cat:"sim" "sim.compile" (fun () ->
      Casted_obs.Metrics.incr "sim.compiles";
      let compile_func (df : Decode.dfunc) =
        let func = df.Decode.func in
        let n c = max 1 (Func.reg_count func c) in
        let sizes = (n Reg.Gp, n Reg.Fp, n Reg.Pr) in
        let compile_block (db : Decode.dblock) =
          { c_bundles = Array.map (compile_bundle d ~sizes) db.Decode.bundles }
        in
        { c_func = func; c_blocks = Array.map compile_block df.Decode.blocks }
      in
      { d; cfuncs = Array.map compile_func d.Decode.funcs })

(* ---- Entry points ---- *)

let arms_of_fault = function
  | None -> (0, 0, 1, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Reg_flip { target_slot; bit }) ->
      (target_slot + 1, bit, 1, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Burst_flip { target_slot; bit; width }) ->
      (target_slot + 1, bit, width, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Mem_flip { target_access; offset; bit }) ->
      (0, 0, 1, target_access + 1, offset, bit, 0, 0, 0)
  | Some (Fault.Branch_flip { target_branch }) ->
      (0, 0, 1, 0, 0, 0, target_branch + 1, 0, 0)
  | Some (Fault.Xcluster_flip { target_read; bit }) ->
      (0, 0, 1, 0, 0, 0, 0, target_read + 1, bit)

let make_cctx (p : t) ~fault ~fuel ~on_block st =
  let ( def_arm, def_bit, def_width, mem_arm, mem_off, mem_bit, br_arm, x_arm,
        x_bit ) =
    arms_of_fault fault
  in
  {
    st;
    funcs = p.cfuncs;
    fuel;
    delay = p.d.Decode.config.Config.delay;
    def_arm;
    def_bit;
    def_width;
    mem_arm;
    mem_off;
    mem_bit;
    br_arm;
    x_arm;
    x_bit;
    on_block;
    ret_cls = -1;
    ret_gp = 0L;
    ret_fp = 0.0;
    ret_pr = false;
  }

let exec_entry c entry =
  let st = c.st in
  st.State.depth <- st.State.depth + 1;
  if st.State.depth > Runtime.max_call_depth then
    raise (Trap.Trap Trap.Stack_overflow);
  let cf = Array.unsafe_get c.funcs entry in
  let fr = State.make_regfile cf.c_func ~time:(st.State.time + 1) in
  (match cf.c_func.Func.params with
  | [] -> ()
  | _ :: _ -> invalid_arg "Simulator: call arity mismatch");
  exec_cblocks c fr cf.c_blocks 0;
  st.State.depth <- st.State.depth - 1

(* One run of the entry function on a fresh machine, or resumed from
   [from] — a snapshot taken at an entry-function block top. Returns
   the machine and the thunk that executes it. *)
let launch (p : t) ~fault ~fuel ~on_block ~from =
  let d = p.d in
  let cache = d.Decode.config.Config.cache in
  match from with
  | None ->
      let st = State.fresh ~image:d.Decode.image ~cache ~perfect:false in
      let c = make_cctx p ~fault ~fuel ~on_block st in
      (st, fun () -> exec_entry c d.Decode.entry)
  | Some snap ->
      let st, fr = State.restore ~cache snap in
      let c = make_cctx p ~fault ~fuel ~on_block st in
      let blocks = (Array.unsafe_get c.funcs d.Decode.entry).c_blocks in
      let start = snap.State.block in
      if start < 0 || start >= Array.length blocks then invalid_arg oob;
      (st, fun () -> exec_cblocks c fr blocks start)

let finish (p : t) ~with_mem_digest st termination =
  let d = p.d in
  Runtime.finish ~config:d.Decode.config ~output_base:d.Decode.output_base
    ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
    ~with_mem_digest st termination

(* Region rollback: when a check fires (or the machine traps), restore
   the latest checkpoint — the last checkpoint-flagged block top of the
   entry function — and re-execute with the fault disarmed: the
   injected upset is a transient, so the retry sees clean hardware. A
   corrupted checkpoint (the fault landed before the snapshot its
   detection fires after) re-fails deterministically and exhausts the
   bounded retry budget, in which case the original failure is
   reported. Work thrown away by failed attempts is folded into the
   final run's [cycles]/[dyn_insns] so recovery pays its true cost.

   Checkpoints are lazy: an attempt only counts the checkpoint block
   tops it passes, and [latest] records how to reach the last one again
   — the attempt's fault, its start (fresh machine or the snapshot it
   restored) and the checkpoint's ordinal. Only when a rollback is due
   is that one snapshot materialized, by re-running the attempt from
   the same start with the same fault and fuel up to the recorded
   checkpoint. Simulation is deterministic and State.snapshot has no
   side effects, so the rebuilt snapshot is exactly the one an eager
   snapshot would have captured; the rebuild is simulator work, not
   machine work, and is not folded into the run. *)
let recover (p : t) ~fault ~fuel ~with_mem_digest ~retry_budget ~from =
  let d = p.d in
  let eblocks = d.Decode.funcs.(d.Decode.entry).Decode.blocks in
  let rebuild (fault, from, ordinal) =
    let exception Reached of State.snapshot in
    let seen = ref 0 in
    let on_block st fr cur =
      if eblocks.(cur).Decode.checkpoint then begin
        incr seen;
        if !seen = ordinal then
          raise (Reached (State.snapshot st ~regs:fr ~block:cur))
      end
    in
    let _, go = launch p ~fault ~fuel ~on_block:(Some on_block) ~from in
    match go () with
    | () -> invalid_arg "Compile.run: checkpoint not reached"
    | exception Reached snap ->
        let module M = Casted_obs.Metrics in
        if M.enabled () then begin
          let start_dyn =
            match from with None -> 0 | Some s -> s.State.s_dyn
          in
          M.incr ~by:(snap.State.s_dyn - start_dyn)
            "sim.checkpoint_rebuild_insns"
        end;
        snap
  in
  let latest = ref None in
  let wasted_cycles = ref 0 in
  let wasted_dyn = ref 0 in
  let rec attempt ~fault ~retries ~from =
    let hits = ref 0 in
    let on_block _ _ cur = if eblocks.(cur).Decode.checkpoint then incr hits in
    let st, go = launch p ~fault ~fuel ~on_block:(Some on_block) ~from in
    let assemble termination =
      let r = finish p ~with_mem_digest st termination in
      if !wasted_cycles = 0 && !wasted_dyn = 0 then r
      else
        let cycles = r.Outcome.cycles + !wasted_cycles in
        let config = d.Decode.config in
        {
          r with
          Outcome.cycles;
          dyn_insns = r.Outcome.dyn_insns + !wasted_dyn;
          slots_total =
            cycles * config.Config.clusters * config.Config.issue_width;
        }
    in
    let exited code =
      if retries > 0 then Outcome.Recovered { exit_code = code; retries }
      else Outcome.Exit code
    in
    let outcome =
      try
        go ();
        (* Entry returned instead of halting: exit 0. *)
        Ok (exited 0)
      with
      | Runtime.Halted code -> Ok (exited code)
      | Runtime.Out_of_fuel -> Ok Outcome.Timeout
      | Runtime.Check_failed id -> Error (Outcome.Detected id)
      | Trap.Trap tr -> Error (Outcome.Trapped tr)
    in
    match outcome with
    | Ok termination -> assemble termination
    | Error termination -> (
        if !hits > 0 then latest := Some (fault, from, !hits);
        match !latest with
        | Some l when retries < retry_budget ->
            (* Read the failed attempt's clock first: the rebuild reuses
               the domain's scratch arenas, so the failed machine is
               gone after it. *)
            let time = st.State.time and dyn = st.State.dyn in
            let snap = rebuild l in
            wasted_cycles := !wasted_cycles + (time - snap.State.s_time);
            wasted_dyn := !wasted_dyn + (dyn - snap.State.s_dyn);
            Casted_obs.Metrics.incr "sim.rollbacks";
            attempt ~fault:None ~retries:(retries + 1) ~from:(Some snap)
        | _ -> assemble termination)
  in
  attempt ~fault ~retries:0 ~from

let run ?fault ?(fuel = max_int) ?(with_mem_digest = false) ?snapshot
    ?on_block ?retry_budget (p : t) =
  match retry_budget with
  | Some retry_budget ->
      if on_block <> None then
        invalid_arg "Compile.run: on_block cannot combine with retry_budget";
      recover p ~fault ~fuel ~with_mem_digest ~retry_budget ~from:snapshot
  | None ->
      let st, go = launch p ~fault ~fuel ~on_block ~from:snapshot in
      let termination =
        Runtime.termination_of (fun () ->
            go ();
            (* Entry returned instead of halting: treat as exit 0. *)
            Outcome.Exit 0)
      in
      let module M = Casted_obs.Metrics in
      if snapshot <> None && M.enabled () then M.incr "sim.replays";
      finish p ~with_mem_digest st termination
