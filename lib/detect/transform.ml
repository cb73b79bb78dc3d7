module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Clone = Casted_ir.Clone

type stats = {
  originals : int;
  replicas : int;
  checks : int;
  shadow_copies : int;
}

let zero_stats = { originals = 0; replicas = 0; checks = 0; shadow_copies = 0 }

let add_stats a b =
  {
    originals = a.originals + b.originals;
    replicas = a.replicas + b.replicas;
    checks = a.checks + b.checks;
    shadow_copies = a.shadow_copies + b.shadow_copies;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d originals, %d replicas, %d checks, %d copies"
    s.originals s.replicas s.checks s.shadow_copies

let expansion s =
  if s.originals = 0 then 1.0
  else
    float_of_int (s.originals + s.replicas + s.checks + s.shadow_copies)
    /. float_of_int s.originals

(* Per-function transformation context. *)
type ctx = {
  func : Func.t;
  shadow : Reg.t Reg.Tbl.t;  (* original register -> shadow register *)
  options : Options.t;
  slice : (int, unit) Hashtbl.t;  (* replication scope (Store_slice mode) *)
  replicate_stores : bool;  (* DME: stores get replicas too *)
  mem_offset : int64;  (* DME: replica memory traffic lands at +offset *)
  mutable n_replicas : int;
  mutable n_checks : int;
  mutable n_copies : int;
}

let should_replicate ctx (insn : Insn.t) =
  (Opcode.replicable insn.Insn.op
  || (ctx.replicate_stores && Opcode.is_store insn.Insn.op))
  &&
  match ctx.options.Options.scope with
  | Options.Full -> true
  | Options.Store_slice -> Hashtbl.mem ctx.slice insn.Insn.id

let ensure_shadow ctx r =
  match Reg.Tbl.find_opt ctx.shadow r with
  | Some r' -> r'
  | None ->
      let r' = Func.fresh_reg ctx.func (Reg.cls r) in
      Reg.Tbl.replace ctx.shadow r r';
      r'

(* Registers that never get a shadow (outside the replication scope)
   resolve to themselves in uses, and produce no check. *)
let soft_shadow ctx r = Reg.Tbl.find_opt ctx.shadow r

(* Pre-allocate every shadow before renaming: a replica may read a
   register whose shadow-producing instruction appears later (loop
   carried), so lazy allocation during the rewrite would misclassify
   it as unshadowed. *)
let preallocate_shadows ctx =
  Func.iter_insns ctx.func (fun _ insn ->
      if should_replicate ctx insn then
        Array.iter (fun r -> ignore (ensure_shadow ctx r)) insn.Insn.defs
      else if
        insn.Insn.role = Insn.Original
        && Array.length insn.Insn.defs > 0
        && (not (Opcode.replicable insn.Insn.op))
        && Array.for_all (fun r -> Reg.cls r <> Reg.Pr) insn.Insn.defs
      then Array.iter (fun r -> ignore (ensure_shadow ctx r)) insn.Insn.defs);
  if ctx.options.Options.shadow_params then
    List.iter
      (fun r -> ignore (ensure_shadow ctx r))
      ctx.func.Func.params

(* Step 1: emit an exact duplicate just before each replicable
   instruction (Algorithm 1, replicate_insns). *)
let replicate_block ctx block =
  let dup insn =
    if should_replicate ctx insn then begin
      ctx.n_replicas <- ctx.n_replicas + 1;
      let replica =
        {
          insn with
          Insn.id = Func.fresh_id ctx.func;
          role = Insn.Replica;
          replica_of = insn.Insn.id;
        }
      in
      [ replica; insn ]
    end
    else [ insn ]
  in
  block.Block.body <- List.concat_map dup block.Block.body

let copy_op cls =
  match cls with
  | Reg.Gp -> Opcode.Mov
  | Reg.Fp -> Opcode.Fmov
  | Reg.Pr ->
      invalid_arg
        "Transform: cannot shadow a predicate register defined by \
         non-replicated code"

let shadow_copy ctx ~after_id r =
  ctx.n_copies <- ctx.n_copies + 1;
  let r' = ensure_shadow ctx r in
  Insn.make ~id:(Func.fresh_id ctx.func) ~op:(copy_op (Reg.cls r))
    ~defs:[| r' |] ~uses:[| r |] ~role:Insn.Shadow_copy ~replica_of:after_id
    ()

(* Step 2: register renaming (Algorithm 1, register_rename).

   Replicas write and read the shadow space; values that enter the
   original stream through non-replicated instructions (call results) or
   function parameters are forwarded into the shadow space with explicit
   copies. *)
let rename_block ctx block =
  let rename insn =
    match insn.Insn.role with
    | Insn.Replica ->
        let def r = ensure_shadow ctx r in
        let use r = Option.value ~default:r (soft_shadow ctx r) in
        let insn = Insn.map_uses use (Insn.map_defs def insn) in
        (* Decorrelated mode: the replica stream's loads and stores hit
           the shifted image, so no single memory line is shared with
           the master's traffic. *)
        let insn =
          if ctx.mem_offset <> 0L && Opcode.is_mem insn.Insn.op then
            { insn with Insn.imm = Int64.add insn.Insn.imm ctx.mem_offset }
          else insn
        in
        [ insn ]
    | Insn.Original when Array.length insn.Insn.defs > 0
                         && not (Opcode.replicable insn.Insn.op) ->
        insn
        :: List.map
             (fun r -> shadow_copy ctx ~after_id:insn.Insn.id r)
             (Array.to_list insn.Insn.defs)
    | Insn.Original | Insn.Check | Insn.Shadow_copy -> [ insn ]
  in
  block.Block.body <- List.concat_map rename block.Block.body

let shadow_params ctx =
  if ctx.options.Options.shadow_params && ctx.func.Func.params <> [] then begin
    let entry = Func.entry ctx.func in
    let copies =
      List.map
        (fun r -> shadow_copy ctx ~after_id:(-1) r)
        ctx.func.Func.params
    in
    entry.Block.body <- copies @ entry.Block.body
  end

(* Step 3: checks (Algorithm 1, emit_check_insns). *)
let checks_for ctx insn =
  if
    insn.Insn.role = Insn.Original
    && (not (Opcode.replicable insn.Insn.op))
    && Options.wants_check ctx.options insn
  then
    List.filter_map
      (fun r ->
        match soft_shadow ctx r with
        | None -> None (* outside the replication scope: no check *)
        | Some r' ->
            ctx.n_checks <- ctx.n_checks + 1;
            Some
              (Insn.make ~id:(Func.fresh_id ctx.func) ~op:Opcode.Chk
                 ~uses:[| r; r' |] ~role:Insn.Check ~protects:insn.Insn.id
                 ()))
      (Array.to_list insn.Insn.uses)
  else []

let check_block ctx block =
  let with_checks insn = checks_for ctx insn @ [ insn ] in
  let body = List.concat_map with_checks block.Block.body in
  (* The terminator's operands are checked at the end of the body. *)
  block.Block.body <- body @ checks_for ctx block.Block.term

let func ?(replicate_stores = false) ?(mem_offset = 0L) options f =
  if not f.Func.protect then zero_stats
  else begin
    let slice =
      match options.Options.scope with
      | Options.Full -> Hashtbl.create 1
      | Options.Store_slice -> Selective.store_slice f
    in
    let ctx =
      {
        func = f;
        shadow = Reg.Tbl.create 64;
        options;
        slice;
        replicate_stores;
        mem_offset;
        n_replicas = 0;
        n_checks = 0;
        n_copies = 0;
      }
    in
    let originals = Func.num_insns f in
    preallocate_shadows ctx;
    List.iter (replicate_block ctx) f.Func.blocks;
    List.iter (rename_block ctx) f.Func.blocks;
    shadow_params ctx;
    List.iter (check_block ctx) f.Func.blocks;
    {
      originals;
      replicas = ctx.n_replicas;
      checks = ctx.n_checks;
      shadow_copies = ctx.n_copies;
    }
  end

let program options p =
  let p = Clone.program p in
  let stats =
    List.fold_left
      (fun acc f -> add_stats acc (func options f))
      zero_stats p.Program.funcs
  in
  (p, stats)
