module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Clone = Casted_ir.Clone

type stats = { regions : int; checkpoints : int }

let zero = { regions = 0; checkpoints = 0 }

let pp_stats ppf s =
  Format.fprintf ppf "%d regions, %d checkpoints" s.regions s.checkpoints

(* A region head is the entry block or any target of a backward (or
   self) branch in layout order — exactly the loop tops. Marking those
   makes every region a loop-free straight shot, so re-executing it
   from its checkpoint is idempotent up to the memory the region itself
   wrote before the failure was detected. *)
let region_heads (f : Func.t) =
  let blocks = Array.of_list f.Func.blocks in
  let index_of = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri
    (fun i b ->
      if not (Hashtbl.mem index_of b.Block.label) then
        Hashtbl.add index_of b.Block.label i)
    blocks;
  let heads = Array.make (Array.length blocks) false in
  if Array.length heads > 0 then heads.(0) <- true;
  Array.iteri
    (fun i b ->
      List.iter
        (fun label ->
          match Hashtbl.find_opt index_of label with
          | Some j when j <= i -> heads.(j) <- true
          | _ -> ())
        (Block.successors b))
    blocks;
  heads

let func (f : Func.t) =
  let heads = region_heads f in
  let n = ref 0 in
  List.iteri
    (fun i b ->
      if heads.(i) then begin
        incr n;
        let cpt = Insn.make ~id:(Func.fresh_id f) ~op:Opcode.Cpt () in
        b.Block.body <- cpt :: b.Block.body
      end)
    f.Func.blocks;
  { regions = !n; checkpoints = !n }

let program (p : Program.t) =
  (* State snapshots are only valid at entry-function block tops with an
     empty call stack (Compile.run ~retry_budget restores nothing else),
     so only the entry function is partitioned; callee work re-executes
     as part of its caller's region. *)
  let p = Clone.program p in
  let stats =
    match
      List.find_opt (fun f -> f.Func.name = p.Program.entry) p.Program.funcs
    with
    | Some f -> func f
    | None -> zero
  in
  (p, stats)
