(* Stage-2 compilation: lower a pre-decoded program (Decode.t) into
   arrays of pre-bound OCaml closures — classic threaded code. Every
   per-instruction decision the interpreter makes dynamically (the
   ~40-arm Opcode match, Reg.cls dispatch per operand, latency lookup,
   immediate/target fetch, fault-site option matching, array bounds
   checks) is resolved here, once, at compile time. What remains at run
   time is a flat array walk: one indirect call per dynamic instruction
   into a closure that reads its operands from unsafe, compile-proven
   indices, computes, and writes back — without allocating (see the
   hot-path note below for what keeps it that way).

   This is the engine every production run executes on: golden runs,
   replay capture, campaign trials and rollback recovery. The decoded
   interpreter (Simulator.reference) stays as the reference it is
   checked against: both engines mutate the same State.t with the same
   event ordering — dyn / fuel / role accounting first, operand reads
   left to right, memory touch after the cache access and the load
   itself, def-slot injection after the write-back, branch-counter
   increment after the predicate read — and the verify oracle holds
   every production path to the reference over the whole example
   matrix. Campaign trials run untimed ([run ~timed:false]): the same
   values and events without the cache model and the issue scan, whose
   cycles no trial's class reads.

   The only hook is at block boundaries: [on_block] fires at each
   entry-function block top (call depth 1), exactly where the
   interpreter fires its own, so replay capture and rollback checkpoints
   see the same program points on both engines. The per-instruction
   closures never test it.

   Fault hooks are pre-extracted into plain int "arms" on the compile
   context: an event counter fires its fault when it equals the arm
   after increment, and arm 0 means never (counters are >= 1 after
   increment). The bits a register fault flips are precomputed as a
   mask. This removes every per-event [Fault.t option] match from the
   hot loop.

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
  (* false: the untimed mode campaign trials run in — no cache model,
     no issue scan (see [run]). *)
  timed : bool;
  delay : int;  (* cross-cluster interconnect delay, from the config *)
  (* The memory arena's live bytes and size, for the in-range fast
     path (State.t's arena is fixed for the run). *)
  arena : Bytes.t;
  arena_size : int;
  (* Pre-extracted fault triggers: counter value (post-increment) at
     which the single armed fault site fires; 0 = never. *)
  def_arm : int;
  def_mask : int64;  (* bits a def-slot fault flips *)
  mem_arm : int;
  mem_off : int;
  mem_bit : int;
  br_arm : int;
  x_arm : int;
  x_mask : int64;  (* bit a cross-cluster fault flips *)
  (* Called at every entry-function block top (depth 1). *)
  on_block : (State.t -> State.regfile -> int -> unit) option;
  (* Return-value scratch: Ret parks the value here, Call consumes it.
     [ret_cls] is class-coded (-1 = none, 0 Gp, 1 Fp, 2 Pr); a GP value
     or FP bit pattern sits unboxed in the 8 bytes of [ret_bits]. *)
  mutable ret_cls : int;
  ret_bits : Bytes.t;
  mutable ret_pr : bool;
  (* One spare callee frame per function ([no_frame] = none), handed
     back on return: a callee frame is dead once its call returns (hooks
     and snapshots only ever see the depth-1 entry frame), so a loop of
     calls reuses one frame instead of allocating one per call. *)
  frames : State.regfile array;
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

let no_frame =
  {
    State.gp = Bytes.empty;
    fpv = [||];
    prv = [||];
    gp_ready = [||];
    fp_ready = [||];
    pr_ready = [||];
    gp_home = [||];
    fp_home = [||];
    pr_home = [||];
  }

(* ---- The allocation-free hot path ----

   Dev builds compile every module with -opaque, which turns off
   cross-module inlining: an int64 passed to or returned from another
   module's function is boxed. So the per-instruction path keeps its
   int64 dataflow inside this module — compiler primitives and the
   [@inline] helpers below, which the closures instantiate with
   constant opcodes, conditions and widths so each folds to straight
   primitive code — and calls out only with ints, bools and pointers
   (Hierarchy.access, Memory.note_write). The remaining boxing sits on
   cold paths: a fault firing, a trapping memory access, a recursive
   call's fresh frame. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* Per-instruction bookkeeping shared by every closure: dynamic count,
   fuel, role tally. Mirrors the interpreter's exec_insn preamble. *)
let[@inline] pre c role =
  let st = c.st in
  let dyn = st.State.dyn + 1 in
  st.State.dyn <- dyn;
  if dyn > c.fuel then raise Runtime.Out_of_fuel;
  let roles = st.State.roles in
  Array.unsafe_set roles role (Array.unsafe_get roles role + 1)

(* Operand reads with cross-cluster accounting; indices are proven in
   bounds at compile time. *)

let[@inline] read_gp c (fr : State.regfile) i cluster =
  let v = get64u fr.State.gp (i lsl 3) in
  let home = Array.unsafe_get fr.State.gp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then Int64.logxor v c.x_mask else v
  end
  else v

let[@inline] read_fp c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.fpv i in
  let home = Array.unsafe_get fr.State.fp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then
      Int64.float_of_bits (Int64.logxor (Int64.bits_of_float v) c.x_mask)
    else v
  end
  else v

let[@inline] read_pr c (fr : State.regfile) i cluster =
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

let[@inline] wr_gp (fr : State.regfile) i (v : int64) ready home =
  set64u fr.State.gp (i lsl 3) v;
  if ready > Array.unsafe_get fr.State.gp_ready i then
    Array.unsafe_set fr.State.gp_ready i ready;
  Array.unsafe_set fr.State.gp_home i home

let[@inline] wr_fp (fr : State.regfile) i (v : float) ready home =
  Array.unsafe_set fr.State.fpv i v;
  if ready > Array.unsafe_get fr.State.fp_ready i then
    Array.unsafe_set fr.State.fp_ready i ready;
  Array.unsafe_set fr.State.fp_home i home

let[@inline] wr_pr (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.prv i v;
  if ready > Array.unsafe_get fr.State.pr_ready i then
    Array.unsafe_set fr.State.pr_ready i ready;
  Array.unsafe_set fr.State.pr_home i home

(* Def-slot fault injection, right after write-back. *)

let[@inline] inject_gp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    set64u fr.State.gp (i lsl 3)
      (Int64.logxor (get64u fr.State.gp (i lsl 3)) c.def_mask)

let[@inline] inject_fp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.fpv i
      (Int64.float_of_bits
         (Int64.logxor
            (Int64.bits_of_float (Array.unsafe_get fr.State.fpv i))
            c.def_mask))

let[@inline] inject_pr c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.prv i (not (Array.unsafe_get fr.State.prv i))

let[@inline] touch_mem c (addr : int64) =
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

(* Runtime.addr_int, kept here so the address stays unboxed: the cache
   model's index for a machine address. *)
let[@inline] addr_int (addr : int64) =
  if addr < 0L then 0 else Int64.to_int (Int64.logand addr 0x3FFF_FFFFL)

(* The access latency; an untimed run skips the model and reads 0,
   since nothing it computes waits on a ready time. *)
let[@inline] cache c (addr : int64) ~write =
  if c.timed then Hierarchy.access c.st.State.hier ~addr:(addr_int addr) ~write
  else 0

let[@inline] width_bytes (w : Opcode.width) =
  match w with Opcode.W1 -> 1 | Opcode.W2 -> 2 | Opcode.W4 -> 4 | Opcode.W8 -> 8

(* Arena offset of an in-range, aligned [n]-byte access at [addr], or -1
   for exactly the accesses Memory's checked path traps on. *)
let[@inline] fast_offset c (addr : int64) n =
  let a = Int64.to_int addr in
  if a >= 0 && a <= c.arena_size - n && a land (n - 1) = 0
     && Int64.of_int a = addr
  then a
  else -1

let[@inline] le16 x = if big_endian () then bswap16 x else x
let[@inline] le32 x = if big_endian () then bswap32 x else x
let[@inline] le64 x = if big_endian () then bswap64 x else x

(* Memory.read, with the in-range access done here; anything else takes
   Memory's checked path, which raises its trap. *)
let[@inline] load c (addr : int64) (w : Opcode.width) signed =
  let a = fast_offset c addr (width_bytes w) in
  if a < 0 then Memory.read c.st.State.mem ~addr ~width:w ~signed
  else
    let m = c.arena in
    match (w, signed) with
    | Opcode.W1, false -> Int64.of_int (Char.code (Bytes.unsafe_get m a))
    | Opcode.W1, true ->
        Int64.of_int ((Char.code (Bytes.unsafe_get m a) lxor 0x80) - 0x80)
    | Opcode.W2, false -> Int64.of_int (le16 (get16u m a))
    | Opcode.W2, true ->
        Int64.of_int ((le16 (get16u m a) lxor 0x8000) - 0x8000)
    | Opcode.W4, false ->
        Int64.logand (Int64.of_int32 (le32 (get32u m a))) 0xFFFF_FFFFL
    | Opcode.W4, true -> Int64.of_int32 (le32 (get32u m a))
    | Opcode.W8, _ -> le64 (get64u m a)

(* Memory.write, with the same split. *)
let[@inline] store c (addr : int64) (w : Opcode.width) (v : int64) =
  let n = width_bytes w in
  let a = fast_offset c addr n in
  if a < 0 then Memory.write c.st.State.mem ~addr ~width:w v
  else begin
    Memory.note_write c.st.State.mem a n;
    let m = c.arena in
    match w with
    | Opcode.W1 ->
        Bytes.unsafe_set m a (Char.unsafe_chr (Int64.to_int v land 0xFF))
    | Opcode.W2 -> set16u m a (le16 (Int64.to_int v land 0xFFFF))
    | Opcode.W4 -> set32u m a (le32 (Int64.to_int32 v))
    | Opcode.W8 -> set64u m a (le64 v)
  end

(* Integer ALU and comparisons, by opcode and condition; each folds to
   one primitive when instantiated with a constant. *)
let[@inline] alu (op : Opcode.t) (x : int64) (y : int64) =
  match op with
  | Opcode.Add | Opcode.Addi -> Int64.add x y
  | Opcode.Sub -> Int64.sub x y
  | Opcode.Mul | Opcode.Muli -> Int64.mul x y
  | Opcode.And | Opcode.Andi -> Int64.logand x y
  | Opcode.Or -> Int64.logor x y
  | Opcode.Xor | Opcode.Xori -> Int64.logxor x y
  | Opcode.Shl | Opcode.Shli -> Int64.shift_left x (Int64.to_int y land 63)
  | Opcode.Shr | Opcode.Shri ->
      Int64.shift_right_logical x (Int64.to_int y land 63)
  | _ (* Sra, Srai *) -> Int64.shift_right x (Int64.to_int y land 63)

(* Alu.sdiv/srem semantics, unboxed. *)
let[@inline] divide ~rem (x : int64) (y : int64) =
  if y = 0L then raise (Trap.Trap Trap.Div_by_zero)
  else if y = -1L && x = Int64.min_int then if rem then 0L else Int64.min_int
  else if rem then Int64.rem x y
  else Int64.div x y

let[@inline] cmp_int (cond : Cond.t) (x : int64) (y : int64) =
  match cond with
  | Cond.Eq -> x = y
  | Cond.Ne -> x <> y
  | Cond.Lt -> x < y
  | Cond.Le -> x <= y
  | Cond.Gt -> x > y
  | Cond.Ge -> x >= y

let[@inline] cmp_float (cond : Cond.t) (x : float) (y : float) =
  match cond with
  | Cond.Eq -> x = y
  | Cond.Ne -> x <> y
  | Cond.Lt -> x < y
  | Cond.Le -> x <= y
  | Cond.Gt -> x > y
  | Cond.Ge -> x >= y

let[@inline] float_op (op : Opcode.t) (x : float) (y : float) =
  match op with
  | Opcode.Fadd -> x +. y
  | Opcode.Fsub -> x -. y
  | Opcode.Fmul -> x *. y
  | _ (* Fdiv *) -> x /. y

(* Instruction bodies, one per shape. Each closure below instantiates
   one with constant [op]/[cond]/[w], so the match inside folds away. *)

let[@inline] exec_alu c fr t ~role ~lat ~cluster op a b dd =
  pre c role;
  let x = read_gp c fr a cluster in
  let y = read_gp c fr b cluster in
  let v = alu op x y in
  wr_gp fr dd v (t + lat) cluster;
  inject_gp c fr dd

let[@inline] exec_div c fr t ~role ~lat ~cluster ~rem a b dd =
  pre c role;
  let x = read_gp c fr a cluster in
  let y = read_gp c fr b cluster in
  let v = divide ~rem x y in
  wr_gp fr dd v (t + lat) cluster;
  inject_gp c fr dd

let[@inline] exec_alui c fr t ~role ~lat ~cluster op a (imm : int64) dd =
  pre c role;
  let x = read_gp c fr a cluster in
  let v = alu op x imm in
  wr_gp fr dd v (t + lat) cluster;
  inject_gp c fr dd

let[@inline] exec_cmp c fr t ~role ~lat ~cluster cond a b dd =
  pre c role;
  let x = read_gp c fr a cluster in
  let y = read_gp c fr b cluster in
  wr_pr fr dd (cmp_int cond x y) (t + lat) cluster;
  inject_pr c fr dd

let[@inline] exec_cmpi c fr t ~role ~lat ~cluster cond a (imm : int64) dd =
  pre c role;
  let x = read_gp c fr a cluster in
  wr_pr fr dd (cmp_int cond x imm) (t + lat) cluster;
  inject_pr c fr dd

let[@inline] exec_fop c fr t ~role ~lat ~cluster op a b dd =
  pre c role;
  let x = read_fp c fr a cluster in
  let y = read_fp c fr b cluster in
  let v = float_op op x y in
  wr_fp fr dd v (t + lat) cluster;
  inject_fp c fr dd

let[@inline] exec_fcmp c fr t ~role ~lat ~cluster cond a b dd =
  pre c role;
  let x = read_fp c fr a cluster in
  let y = read_fp c fr b cluster in
  wr_pr fr dd (cmp_float cond x y) (t + lat) cluster;
  inject_pr c fr dd

(* Same order as the interpreter: cache access, then the (possibly
   trapping) load, then the memory-event count. *)
let[@inline] exec_ld c fr t ~role ~cluster w signed a (imm : int64) dd =
  pre c role;
  let addr = Int64.add (read_gp c fr a cluster) imm in
  let lat = cache c addr ~write:false in
  let v = load c addr w signed in
  touch_mem c addr;
  wr_gp fr dd v (t + lat) cluster;
  inject_gp c fr dd

(* Stores: the (possibly trapping) write, then the cache access. *)
let[@inline] exec_st c fr ~role ~cluster w aval aaddr (imm : int64) =
  pre c role;
  let addr = Int64.add (read_gp c fr aaddr cluster) imm in
  let v = read_gp c fr aval cluster in
  store c addr w v;
  ignore (cache c addr ~write:true);
  touch_mem c addr

(* The block loop — same two-phase bundle semantics as the interpreter:
   compute the lockstep issue time over every operand of the whole
   bundle, then execute the flattened body at that time. Tail-recursive,
   allocation-free. The block-top hook fires where the interpreter's
   does: before the block runs, only with the call stack empty. An
   untimed run skips the operand scan and issues each bundle at its
   scheduled offset or one past the last, whichever is later. *)

(* Issue-time scan over one packed queue: fold cross-cluster-delayed
   operand arrival times into st.tmax. The block loop calls it only for
   a non-empty queue: most bundles of the integer kernels have no FP or
   predicate operand, and the call itself then costs more than the
   empty walk it would do. *)
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
    let t = if nb > t0 then nb else t0 in
    let t =
      if c.timed then begin
        st.State.tmax <- t;
        let q = cb.q_gp in
        if Array.length q > 0 then
          scan_q st fr.State.gp_ready fr.State.gp_home c.delay q;
        let q = cb.q_fp in
        if Array.length q > 0 then
          scan_q st fr.State.fp_ready fr.State.fp_home c.delay q;
        let q = cb.q_pr in
        if Array.length q > 0 then
          scan_q st fr.State.pr_ready fr.State.pr_home c.delay q;
        st.State.tmax
      end
      else t
    in
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
        (match di.Decode.op with
        | Opcode.Add ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Add a b dd
        | Opcode.Sub ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Sub a b dd
        | Opcode.Mul ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Mul a b dd
        | Opcode.Div ->
            fun c fr t -> exec_div c fr t ~role ~lat ~cluster ~rem:false a b dd
        | Opcode.Rem ->
            fun c fr t -> exec_div c fr t ~role ~lat ~cluster ~rem:true a b dd
        | Opcode.And ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.And a b dd
        | Opcode.Or ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Or a b dd
        | Opcode.Xor ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Xor a b dd
        | Opcode.Shl ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Shl a b dd
        | Opcode.Shr ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Shr a b dd
        | _ ->
            fun c fr t -> exec_alu c fr t ~role ~lat ~cluster Opcode.Sra a b dd)
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        (match di.Decode.op with
        | Opcode.Addi ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Addi a imm dd
        | Opcode.Muli ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Muli a imm dd
        | Opcode.Andi ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Andi a imm dd
        | Opcode.Xori ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Xori a imm dd
        | Opcode.Shli ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Shli a imm dd
        | Opcode.Shri ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Shri a imm dd
        | _ ->
            fun c fr t ->
              exec_alui c fr t ~role ~lat ~cluster Opcode.Srai a imm dd)
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
        (match cond with
        | Cond.Eq ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Eq a b dd
        | Cond.Ne ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Ne a b dd
        | Cond.Lt ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Lt a b dd
        | Cond.Le ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Le a b dd
        | Cond.Gt ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Gt a b dd
        | Cond.Ge ->
            fun c fr t -> exec_cmp c fr t ~role ~lat ~cluster Cond.Ge a b dd)
  | Opcode.Cmpi cond ->
      if not (nu >= 1 && u 0 < ngp && pr_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        (match cond with
        | Cond.Eq ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Eq a imm dd
        | Cond.Ne ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Ne a imm dd
        | Cond.Lt ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Lt a imm dd
        | Cond.Le ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Le a imm dd
        | Cond.Gt ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Gt a imm dd
        | Cond.Ge ->
            fun c fr t -> exec_cmpi c fr t ~role ~lat ~cluster Cond.Ge a imm dd)
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
          if voting && ((not p) || v <> get64u fr.State.gp (u2 lsl 3)) then
            c.st.State.corrections <- c.st.State.corrections + 1;
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv ->
      if not (nu >= 2 && u 0 < nfp && u 1 < nfp && fp_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        (match di.Decode.op with
        | Opcode.Fadd ->
            fun c fr t -> exec_fop c fr t ~role ~lat ~cluster Opcode.Fadd a b dd
        | Opcode.Fsub ->
            fun c fr t -> exec_fop c fr t ~role ~lat ~cluster Opcode.Fsub a b dd
        | Opcode.Fmul ->
            fun c fr t -> exec_fop c fr t ~role ~lat ~cluster Opcode.Fmul a b dd
        | _ ->
            fun c fr t ->
              exec_fop c fr t ~role ~lat ~cluster Opcode.Fdiv a b dd)
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
        (match cond with
        | Cond.Eq ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Eq a b dd
        | Cond.Ne ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Ne a b dd
        | Cond.Lt ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Lt a b dd
        | Cond.Le ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Le a b dd
        | Cond.Gt ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Gt a b dd
        | Cond.Ge ->
            fun c fr t -> exec_fcmp c fr t ~role ~lat ~cluster Cond.Ge a b dd)
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
          (* [f <> f]: NaN, as Float.is_nan. *)
          let v = if f <> f then 0L else Int64.of_float (Float.trunc f) in
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Ld w | Opcode.Lds w ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let signed =
          match di.Decode.op with Opcode.Lds _ -> true | _ -> false
        in
        (match (w, signed) with
        | Opcode.W1, false ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W1 false a imm dd
        | Opcode.W1, true ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W1 true a imm dd
        | Opcode.W2, false ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W2 false a imm dd
        | Opcode.W2, true ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W2 true a imm dd
        | Opcode.W4, false ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W4 false a imm dd
        | Opcode.W4, true ->
            fun c fr t -> exec_ld c fr t ~role ~cluster Opcode.W4 true a imm dd
        | Opcode.W8, _ ->
            fun c fr t ->
              exec_ld c fr t ~role ~cluster Opcode.W8 false a imm dd)
  | Opcode.Fld ->
      if not (nu >= 1 && u 0 < ngp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        fun c fr t ->
          pre c role;
          let addr = Int64.add (read_gp c fr a cluster) imm in
          let lat = cache c addr ~write:false in
          let off = fast_offset c addr 8 in
          let v =
            if off < 0 then Memory.read_float c.st.State.mem ~addr
            else Int64.float_of_bits (le64 (get64u c.arena off))
          in
          touch_mem c addr;
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.St w ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        (match w with
        | Opcode.W1 ->
            fun c fr _ -> exec_st c fr ~role ~cluster Opcode.W1 aval aaddr imm
        | Opcode.W2 ->
            fun c fr _ -> exec_st c fr ~role ~cluster Opcode.W2 aval aaddr imm
        | Opcode.W4 ->
            fun c fr _ -> exec_st c fr ~role ~cluster Opcode.W4 aval aaddr imm
        | Opcode.W8 ->
            fun c fr _ -> exec_st c fr ~role ~cluster Opcode.W8 aval aaddr imm)
  | Opcode.Fst ->
      if not (nu >= 2 && u 0 < nfp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        fun c fr _ ->
          pre c role;
          let addr = Int64.add (read_gp c fr aaddr cluster) imm in
          let v = read_fp c fr aval cluster in
          store c addr Opcode.W8 (Int64.bits_of_float v);
          ignore (cache c addr ~write:true);
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
                if x <> y then raise (Runtime.Check_failed id)
        | Reg.Fp ->
            if not (u 0 < nfp && u 1 < nfp) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_fp c fr a cluster in
                let y = read_fp c fr b cluster in
                if Int64.bits_of_float x <> Int64.bits_of_float y then
                  raise (Runtime.Check_failed id)
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
                set64u c.ret_bits 0 v;
                c.st.State.xfer <- State.xfer_return
        | Reg.Fp ->
            if not (u 0 < nfp) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_fp c fr a cluster in
                c.ret_cls <- 1;
                set64u c.ret_bits 0 (Int64.bits_of_float v);
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
            let saved_bits = get64u c.ret_bits 0 in
            let saved_pr = c.ret_pr in
            let ready = st.State.time + 1 in
            let nfr = Array.unsafe_get c.frames target in
            let nfr =
              if nfr == no_frame then State.make_regfile kfunc ~time:ready
              else begin
                Array.unsafe_set c.frames target no_frame;
                State.reset_regfile nfr ~time:ready;
                nfr
              end
            in
            for i = 0 to Array.length binders - 1 do
              (Array.unsafe_get binders i) c fr nfr ready
            done;
            st.State.depth <- st.State.depth + 1;
            if st.State.depth > Runtime.max_call_depth then
              raise (Trap.Trap Trap.Stack_overflow);
            exec_cblocks c nfr (Array.unsafe_get c.funcs target).c_blocks 0;
            st.State.depth <- st.State.depth - 1;
            Array.unsafe_set c.frames target nfr;
            let rcls = c.ret_cls in
            let rbits = get64u c.ret_bits 0 in
            let rpr = c.ret_pr in
            c.ret_cls <- saved_cls;
            set64u c.ret_bits 0 saved_bits;
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
                  wr_gp fr dd rbits wready cluster;
                  inject_gp c fr dd
              | 1 ->
                  wr_fp fr dd (Int64.float_of_bits rbits) wready cluster;
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
  | None -> (0, 0L, 0, 0, 0, 0, 0, 0L)
  | Some (Fault.Reg_flip { target_slot; bit }) ->
      (target_slot + 1, Fault.burst_mask ~bit ~width:1, 0, 0, 0, 0, 0, 0L)
  | Some (Fault.Burst_flip { target_slot; bit; width }) ->
      (target_slot + 1, Fault.burst_mask ~bit ~width, 0, 0, 0, 0, 0, 0L)
  | Some (Fault.Mem_flip { target_access; offset; bit }) ->
      (0, 0L, target_access + 1, offset, bit, 0, 0, 0L)
  | Some (Fault.Branch_flip { target_branch }) ->
      (0, 0L, 0, 0, 0, target_branch + 1, 0, 0L)
  | Some (Fault.Xcluster_flip { target_read; bit }) ->
      (0, 0L, 0, 0, 0, 0, target_read + 1, Fault.burst_mask ~bit ~width:1)

let make_cctx (p : t) ~timed ~fault ~fuel ~on_block st =
  let def_arm, def_mask, mem_arm, mem_off, mem_bit, br_arm, x_arm, x_mask =
    arms_of_fault fault
  in
  let mem = st.State.mem in
  {
    st;
    funcs = p.cfuncs;
    fuel;
    timed;
    delay = p.d.Decode.config.Config.delay;
    arena = Memory.unsafe_bytes mem;
    arena_size = Memory.size mem;
    def_arm;
    def_mask;
    mem_arm;
    mem_off;
    mem_bit;
    br_arm;
    x_arm;
    x_mask;
    on_block;
    ret_cls = -1;
    ret_bits = Bytes.make 8 '\000';
    ret_pr = false;
    frames = Array.make (Array.length p.cfuncs) no_frame;
  }

let exec_entry c entry =
  let st = c.st in
  st.State.depth <- st.State.depth + 1;
  if st.State.depth > Runtime.max_call_depth then
    raise (Trap.Trap Trap.Stack_overflow);
  let cf = Array.unsafe_get c.funcs entry in
  let fr = State.entry_regfile cf.c_func ~time:(st.State.time + 1) in
  (match cf.c_func.Func.params with
  | [] -> ()
  | _ :: _ -> invalid_arg "Simulator: call arity mismatch");
  exec_cblocks c fr cf.c_blocks 0;
  st.State.depth <- st.State.depth - 1

(* One run of the entry function on a fresh machine, or resumed from
   [from] — a snapshot taken at an entry-function block top. Returns
   the machine and the thunk that executes it. An untimed machine sits
   on the domain's untimed hierarchy, which it never touches. *)
let launch (p : t) ~timed ~fault ~fuel ~on_block ~from =
  let d = p.d in
  let cache = d.Decode.config.Config.cache in
  match from with
  | None ->
      let st = State.fresh ~timed ~image:d.Decode.image cache in
      let c = make_cctx p ~timed ~fault ~fuel ~on_block st in
      (st, fun () -> exec_entry c d.Decode.entry)
  | Some snap ->
      let st, fr = State.restore ~timed ~cache snap in
      let c = make_cctx p ~timed ~fault ~fuel ~on_block st in
      let blocks = (Array.unsafe_get c.funcs d.Decode.entry).c_blocks in
      let start = snap.State.block in
      if start < 0 || start >= Array.length blocks then invalid_arg oob;
      (st, fun () -> exec_cblocks c fr blocks start)

let checkpoint (p : t) block =
  let eblocks = p.d.Decode.funcs.(p.d.Decode.entry).Decode.blocks in
  block >= 0 && block < Array.length eblocks && eblocks.(block).Decode.checkpoint

let finish (p : t) ~timed ~with_mem_digest st termination =
  let d = p.d in
  Runtime.finish ~config:d.Decode.config ~output_base:d.Decode.output_base
    ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
    ~with_mem_digest ~timed st termination

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
   machine work, and is not folded into the run.

   A run resumed from a snapshot (a replayed campaign trial) starts at
   a checkpoint-flagged block top: the block hook fires there first, so
   the start counts as the attempt's first checkpoint, as it did when
   the full-length run passed it. The latest checkpoint at any failure,
   its rebuild, the retries and the outcome are then the full run's. *)
let recover (p : t) ~timed ~fault ~fuel ~with_mem_digest ~retry_budget ~from =
  let d = p.d in
  let eblocks = d.Decode.funcs.(d.Decode.entry).Decode.blocks in
  (match from with
  | Some s when not (checkpoint p s.State.block) ->
      invalid_arg
        "Compile.run: a recovering run resumes only at a checkpoint-flagged \
         block"
  | _ -> ());
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
    let _, go = launch p ~timed ~fault ~fuel ~on_block:(Some on_block) ~from in
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
    let st, go =
      launch p ~timed ~fault ~fuel ~on_block:(Some on_block) ~from
    in
    let assemble termination =
      let r = finish p ~timed ~with_mem_digest st termination in
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
    ?on_block ?retry_budget ?(timed = true) (p : t) =
  match retry_budget with
  | Some retry_budget ->
      if on_block <> None then
        invalid_arg "Compile.run: on_block cannot combine with retry_budget";
      recover p ~timed ~fault ~fuel ~with_mem_digest ~retry_budget
        ~from:snapshot
  | None ->
      let st, go = launch p ~timed ~fault ~fuel ~on_block ~from:snapshot in
      let termination =
        Runtime.termination_of (fun () ->
            go ();
            (* Entry returned instead of halting: treat as exit 0. *)
            Outcome.Exit 0)
      in
      let module M = Casted_obs.Metrics in
      if snapshot <> None && M.enabled () then M.incr "sim.replays";
      finish p ~timed ~with_mem_digest st termination
