module Reg = Casted_ir.Reg
module Cond = Casted_ir.Cond
module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Clone = Casted_ir.Clone

type stats = {
  originals : int;
  replicas : int;
  votes : int;
  fallback_checks : int;
  shadow_copies : int;
}

let zero =
  { originals = 0; replicas = 0; votes = 0; fallback_checks = 0;
    shadow_copies = 0 }

let add a b =
  {
    originals = a.originals + b.originals;
    replicas = a.replicas + b.replicas;
    votes = a.votes + b.votes;
    fallback_checks = a.fallback_checks + b.fallback_checks;
    shadow_copies = a.shadow_copies + b.shadow_copies;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d originals, %d replicas, %d votes, %d fallback checks, %d copies"
    s.originals s.replicas s.votes s.fallback_checks s.shadow_copies

type ctx = {
  func : Func.t;
  shadow1 : Reg.t Reg.Tbl.t;
  shadow2 : Reg.t Reg.Tbl.t;
  options : Options.t;
  mutable n_replicas : int;
  mutable n_votes : int;
  mutable n_checks : int;
  mutable n_copies : int;
}

let ensure tbl ctx r =
  match Reg.Tbl.find_opt tbl r with
  | Some r' -> r'
  | None ->
      let r' = Func.fresh_reg ctx.func (Reg.cls r) in
      Reg.Tbl.replace tbl r r';
      r'

let s1 ctx r = ensure ctx.shadow1 ctx r
let s2 ctx r = ensure ctx.shadow2 ctx r

let mk ctx ~op ?defs ?uses ?imm ?fimm ?role ?replica_of ?protects () =
  Insn.make ~id:(Func.fresh_id ctx.func) ~op ?defs ?uses ?imm ?fimm ?role
    ?replica_of ?protects ()

(* Steps 1+2 fused: emit both renamed replicas just before each
   replicable instruction. *)
let triplicate_block ctx block =
  let expand (insn : Insn.t) =
    if Opcode.replicable insn.Insn.op then begin
      ctx.n_replicas <- ctx.n_replicas + 2;
      let clone shadow =
        {
          insn with
          Insn.id = Func.fresh_id ctx.func;
          role = Insn.Replica;
          replica_of = insn.Insn.id;
          defs = Array.map (shadow ctx) insn.Insn.defs;
          uses = Array.map (shadow ctx) insn.Insn.uses;
        }
      in
      [ clone s1; clone s2; insn ]
    end
    else [ insn ]
  in
  block.Block.body <- List.concat_map expand block.Block.body

(* Shadow copies of one register into both shadow spaces. Gp/Fp copy
   with a plain move; there is no predicate move, so a Pr register is
   materialised into a scratch GP ([Sel] of 1/0) and re-compared into
   each shadow predicate. The shadows are then honest copies that a
   later {!fallback_check} can trap against — this used to be an
   [invalid_arg] abort for predicate-class registers. *)
let shadow_copy_pair ctx ?replica_of r =
  ctx.n_copies <- ctx.n_copies + 2;
  match Reg.cls r with
  | Reg.Gp ->
      [
        mk ctx ~op:Opcode.Mov ~defs:[| s1 ctx r |] ~uses:[| r |]
          ~role:Insn.Shadow_copy ?replica_of ();
        mk ctx ~op:Opcode.Mov ~defs:[| s2 ctx r |] ~uses:[| r |]
          ~role:Insn.Shadow_copy ?replica_of ();
      ]
  | Reg.Fp ->
      [
        mk ctx ~op:Opcode.Fmov ~defs:[| s1 ctx r |] ~uses:[| r |]
          ~role:Insn.Shadow_copy ?replica_of ();
        mk ctx ~op:Opcode.Fmov ~defs:[| s2 ctx r |] ~uses:[| r |]
          ~role:Insn.Shadow_copy ?replica_of ();
      ]
  | Reg.Pr ->
      let one = Func.fresh_reg ctx.func Reg.Gp in
      let zero = Func.fresh_reg ctx.func Reg.Gp in
      let g = Func.fresh_reg ctx.func Reg.Gp in
      [
        mk ctx ~op:Opcode.Movi ~defs:[| one |] ~imm:1L ~role:Insn.Shadow_copy
          ?replica_of ();
        mk ctx ~op:Opcode.Movi ~defs:[| zero |] ~imm:0L
          ~role:Insn.Shadow_copy ?replica_of ();
        mk ctx ~op:Opcode.Sel ~defs:[| g |] ~uses:[| r; one; zero |]
          ~role:Insn.Shadow_copy ?replica_of ();
        mk ctx ~op:(Opcode.Cmpi Cond.Ne) ~defs:[| s1 ctx r |] ~uses:[| g |]
          ~imm:0L ~role:Insn.Shadow_copy ?replica_of ();
        mk ctx ~op:(Opcode.Cmpi Cond.Ne) ~defs:[| s2 ctx r |] ~uses:[| g |]
          ~imm:0L ~role:Insn.Shadow_copy ?replica_of ();
      ]

(* Shadow copies after non-replicated definitions and for parameters,
   into both shadow spaces. *)
let shadow_copies_block ctx block =
  let expand (insn : Insn.t) =
    if
      insn.Insn.role = Insn.Original
      && Array.length insn.Insn.defs > 0
      && not (Opcode.replicable insn.Insn.op)
    then
      insn
      :: List.concat_map
           (fun r -> shadow_copy_pair ctx ~replica_of:insn.Insn.id r)
           (Array.to_list insn.Insn.defs)
    else [ insn ]
  in
  block.Block.body <- List.concat_map expand block.Block.body

let shadow_params ctx =
  if ctx.options.Options.shadow_params && ctx.func.Func.params <> [] then begin
    let entry = Func.entry ctx.func in
    let copies =
      List.concat_map (fun r -> shadow_copy_pair ctx r) ctx.func.Func.params
    in
    entry.Block.body <- copies @ entry.Block.body
  end

(* Majority vote on one general-purpose register: if the two shadows
   agree they outvote the original, otherwise the original wins (a
   single fault can only corrupt one copy). The voted value repairs all
   three copies. *)
let vote_gp ctx ~protects r =
  ctx.n_votes <- ctx.n_votes + 1;
  let a = s1 ctx r and b = s2 ctx r in
  let p = Func.fresh_reg ctx.func Reg.Pr in
  let v = Func.fresh_reg ctx.func Reg.Gp in
  [
    mk ctx ~op:(Opcode.Cmp Cond.Eq) ~defs:[| p |] ~uses:[| a; b |]
      ~role:Insn.Check ~protects ();
    mk ctx ~op:Opcode.Sel ~defs:[| v |] ~uses:[| p; a; r |] ~role:Insn.Check
      ~protects ();
    mk ctx ~op:Opcode.Mov ~defs:[| r |] ~uses:[| v |] ~role:Insn.Check
      ~protects ();
    mk ctx ~op:Opcode.Mov ~defs:[| a |] ~uses:[| v |] ~role:Insn.Check
      ~protects ();
    mk ctx ~op:Opcode.Mov ~defs:[| b |] ~uses:[| v |] ~role:Insn.Check
      ~protects ();
  ]

(* Non-GP operands cannot be selected on; fall back to a detection
   check against the first shadow. *)
let fallback_check ctx ~protects r =
  ctx.n_checks <- ctx.n_checks + 1;
  [
    mk ctx ~op:Opcode.Chk ~uses:[| r; s1 ctx r |] ~role:Insn.Check ~protects
      ();
  ]

let protect_insn ctx (insn : Insn.t) =
  if insn.Insn.role = Insn.Original
     && (not (Opcode.replicable insn.Insn.op))
     && Options.wants_check ctx.options insn
  then begin
    (* Deduplicate: voting twice on the same register is pure waste. *)
    let seen = Reg.Tbl.create 4 in
    List.concat_map
      (fun r ->
        if Reg.Tbl.mem seen r then []
        else begin
          Reg.Tbl.replace seen r ();
          match Reg.cls r with
          | Reg.Gp -> vote_gp ctx ~protects:insn.Insn.id r
          | Reg.Fp | Reg.Pr -> fallback_check ctx ~protects:insn.Insn.id r
        end)
      (Array.to_list insn.Insn.uses)
  end
  else []

let vote_block ctx block =
  let expand insn = protect_insn ctx insn @ [ insn ] in
  let body = List.concat_map expand block.Block.body in
  block.Block.body <- body @ protect_insn ctx block.Block.term

let func options f =
  if not f.Func.protect then zero
  else begin
    let ctx =
      {
        func = f;
        shadow1 = Reg.Tbl.create 64;
        shadow2 = Reg.Tbl.create 64;
        options;
        n_replicas = 0;
        n_votes = 0;
        n_checks = 0;
        n_copies = 0;
      }
    in
    let originals = Func.num_insns f in
    List.iter (triplicate_block ctx) f.Func.blocks;
    List.iter (shadow_copies_block ctx) f.Func.blocks;
    shadow_params ctx;
    List.iter (vote_block ctx) f.Func.blocks;
    {
      originals;
      replicas = ctx.n_replicas;
      votes = ctx.n_votes;
      fallback_checks = ctx.n_checks;
      shadow_copies = ctx.n_copies;
    }
  end

let program options p =
  let p = Clone.program p in
  let stats =
    List.fold_left (fun acc f -> add acc (func options f)) zero
      p.Program.funcs
  in
  (p, stats)
