module B = Casted_ir.Builder
module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Cond = Casted_ir.Cond
module Program = Casted_ir.Program
module Asm = Casted_ir.Asm
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Rng = Casted_sim.Rng
module Pool = Casted_exec.Pool

(* The recipe language mirrors test_differential's: a small structured
   imperative program over a fixed register file and fixed aligned
   memory slots (so no generated program can trap), plus a call into a
   protected helper so parameter shadowing and call checks are
   exercised. *)
type stmt =
  | Binop of int * int * int * int  (* kind, dst, src1, src2 *)
  | Immop of int * int * int * int64  (* kind, dst, src, imm *)
  | Select of int * int * int * int * int64  (* dst, cmp, a, b, threshold *)
  | Store of int * int  (* slot, src *)
  | Load of int * int  (* dst, slot *)
  | Callh of int * int * int  (* dst, arg1, arg2 *)
  | If_ of int * int64 * stmt list * stmt list
  | Loop of int * stmt list  (* iterations 1..4, body *)

let n_regs = 6
let n_slots = 8
let mem_base = 0x100L

(* Every random draw is an explicit [let] in source order: constructor
   argument evaluation order is unspecified in OCaml, and the generator
   must be deterministic for a (seed, index) pair forever. *)
let rec gen_stmt rng depth =
  let reg () = Rng.int rng n_regs in
  let slot () = Rng.int rng n_slots in
  let imm () = Int64.of_int (Rng.int rng 101 - 50) in
  let pick = Rng.int rng (if depth <= 0 then 12 else 14) in
  match pick with
  | 0 | 1 ->
      let k = Rng.int rng 6 in
      let d = reg () in
      let a = reg () in
      let b = reg () in
      Binop (k, d, a, b)
  | 2 | 3 ->
      let k = Rng.int rng 5 in
      let d = reg () in
      let s = reg () in
      let i = imm () in
      Immop (k, d, s, i)
  | 4 | 5 ->
      let d = reg () in
      let c = reg () in
      let a = reg () in
      let b = reg () in
      let t = imm () in
      Select (d, c, a, b, t)
  | 6 | 7 ->
      let s = slot () in
      let r = reg () in
      Store (s, r)
  | 8 | 9 ->
      let d = reg () in
      let s = slot () in
      Load (d, s)
  | 10 | 11 ->
      let d = reg () in
      let a = reg () in
      let b = reg () in
      Callh (d, a, b)
  | 12 ->
      let s = reg () in
      let t = imm () in
      let thens = gen_stmts rng (depth - 1) in
      let elses = gen_stmts rng (depth - 1) in
      If_ (s, t, thens, elses)
  | _ ->
      let n = 1 + Rng.int rng 4 in
      let body = gen_stmts rng (depth - 1) in
      Loop (n, body)

and gen_stmts rng depth =
  let n = 1 + Rng.int rng 4 in
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (gen_stmt rng depth :: acc)
  in
  go n []

let recipe ~seed index =
  let rng = Rng.create ~seed:(Rng.derive ~seed index) in
  let n = 3 + Rng.int rng 18 in
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (gen_stmt rng 2 :: acc)
  in
  go n []

(* Protected callee: pure arithmetic on its two parameters. Being
   protected, the transform shadows its parameters and checks its
   return path — coverage no main-only program has. *)
let helper () =
  let x = Reg.gp 0 and y = Reg.gp 1 in
  let b = B.create ~name:"madd" ~params:[ x; y ] ~ret_cls:(Some Reg.Gp) () in
  let s = B.add b x y in
  let t = B.muli b s 3L in
  let r = B.xori b t 0x55L in
  B.ret b ~value:r ();
  B.finish b

let emit_program stmts =
  let b = B.create ~name:"main" () in
  let base = B.movi b mem_base in
  let regs = Array.init n_regs (fun i -> B.movi b (Int64.of_int (i * 7))) in
  let rec emit_stmt = function
    | Binop (kind, d, a, b') ->
        let dst = regs.(d) and x = regs.(a) and y = regs.(b') in
        let f =
          match kind with
          | 0 -> B.add
          | 1 -> B.sub
          | 2 -> B.mul
          | 3 -> B.and_
          | 4 -> B.or_
          | _ -> B.xor
        in
        ignore (f b ~dst x y)
    | Immop (kind, d, s, imm) ->
        let dst = regs.(d) and x = regs.(s) in
        let f =
          match kind with
          | 0 -> B.addi
          | 1 -> B.muli
          | 2 -> B.xori
          | 3 -> fun b ?dst x _ -> B.shri b ?dst x 3L
          | _ -> fun b ?dst x _ -> B.srai b ?dst x 2L
        in
        ignore (f b ~dst x imm)
    | Select (d, c, x, y, t) ->
        let p = B.cmpi b Cond.Lt regs.(c) t in
        ignore (B.sel b ~dst:regs.(d) p regs.(x) regs.(y))
    | Store (slot, r) ->
        B.st b Opcode.W8 ~value:regs.(r) ~base (Int64.of_int (8 * slot))
    | Load (d, slot) ->
        ignore (B.ld b ~dst:regs.(d) Opcode.W8 base (Int64.of_int (8 * slot)))
    | Callh (d, x, y) -> B.call b ~dst:regs.(d) "madd" [ regs.(x); regs.(y) ]
    | If_ (s, t, thens, elses) ->
        let p = B.cmpi b Cond.Ge regs.(s) t in
        B.if_ b p
          (fun _ -> List.iter emit_stmt thens)
          (fun _ -> List.iter emit_stmt elses)
    | Loop (n, body) ->
        B.counted_loop b ~from:0L ~until:(Int64.of_int n) (fun _ _ ->
            List.iter emit_stmt body)
  in
  List.iter emit_stmt stmts;
  (* Observability epilogue: every register and memory slot reaches the
     output region, so a wrong value anywhere is an output divergence. *)
  let out = B.movi b 0x40L in
  Array.iteri
    (fun i r -> B.st b Opcode.W8 ~value:r ~base:out (Int64.of_int (8 * i)))
    regs;
  let acc = B.movi b 0L in
  for slot = 0 to n_slots - 1 do
    let v = B.ld b Opcode.W8 base (Int64.of_int (8 * slot)) in
    ignore (B.xor b ~dst:acc acc v)
  done;
  B.st b Opcode.W8 ~value:acc ~base:out (Int64.of_int (8 * n_regs));
  let zero = B.movi b 0L in
  B.halt b ~code:zero ();
  Program.make
    ~funcs:[ B.finish b; helper () ]
    ~entry:"main" ~mem_size:(1 lsl 16) ~output_base:0x40
    ~output_len:(8 * (n_regs + 1))
    ()

let default_cells =
  [
    { Oracle.scheme = Scheme.Noed; issue_width = 2; delay = 1 };
    { Oracle.scheme = Scheme.Sced; issue_width = 1; delay = 1 };
    { Oracle.scheme = Scheme.Sced; issue_width = 4; delay = 1 };
    { Oracle.scheme = Scheme.Dced; issue_width = 1; delay = 1 };
    { Oracle.scheme = Scheme.Dced; issue_width = 2; delay = 3 };
    { Oracle.scheme = Scheme.Casted; issue_width = 1; delay = 1 };
    { Oracle.scheme = Scheme.Casted; issue_width = 2; delay = 4 };
    { Oracle.scheme = Scheme.Casted; issue_width = 3; delay = 2 };
    { Oracle.scheme = Scheme.Dme; issue_width = 1; delay = 1 };
    { Oracle.scheme = Scheme.Dme; issue_width = 2; delay = 2 };
    { Oracle.scheme = Scheme.Tmr; issue_width = 2; delay = 2 };
    { Oracle.scheme = Scheme.Rollback; issue_width = 2; delay = 2 };
  ]

let check_program ?(cells = default_cells) ?(fuel = 1_000_000) program =
  Casted_ir.Validate.check_exn program;
  let reference = Oracle.reference ~fuel program in
  List.fold_left
    (fun (diags, divs) cell ->
      let ds, vs = Oracle.check_cell ~fuel ~reference program cell in
      (diags @ List.map (fun d -> (cell, d)) ds, divs @ vs))
    ([], []) cells

(* [None] when the recipe is clean; the shrinker keeps only recipes for
   which this stays [Some]. *)
let failing ?cells ?fuel stmts =
  let program = emit_program stmts in
  match check_program ?cells ?fuel program with
  | [], [] -> None
  | diags, divs -> Some (program, diags, divs)

(* Structural shrink candidates, simplest-first: drop a statement,
   flatten a compound into (a subset of) its body, reduce a loop count,
   then recurse into compound bodies. *)
let rec shrinks_of_list = function
  | [] -> []
  | s :: rest ->
      (rest
       ::
       (match s with
        | If_ (_, _, a, b) -> [ a @ rest; b @ rest; a @ b @ rest ]
        | Loop (_, body) -> [ body @ rest ]
        | _ -> [])
      @ List.map (fun s' -> s' :: rest) (shrink_stmt s))
      @ List.map (fun rest' -> s :: rest') (shrinks_of_list rest)

and shrink_stmt = function
  | If_ (r, t, a, b) ->
      List.map (fun a' -> If_ (r, t, a', b)) (shrinks_of_list a)
      @ List.map (fun b' -> If_ (r, t, a, b')) (shrinks_of_list b)
  | Loop (n, body) ->
      (if n > 1 then [ Loop (1, body) ] else [])
      @ List.map (fun body' -> Loop (n, body')) (shrinks_of_list body)
  | _ -> []

(* Greedy descent to a local minimum, bounded so a pathological failure
   cannot stall the campaign. *)
let shrink ?cells ?fuel stmts first_failure =
  let budget = ref 1000 in
  let steps = ref 0 in
  let rec go stmts failure =
    let rec try_candidates = function
      | [] -> (stmts, failure)
      | c :: cs ->
          if !budget <= 0 then (stmts, failure)
          else begin
            decr budget;
            match failing ?cells ?fuel c with
            | Some f ->
                incr steps;
                go c f
            | None -> try_candidates cs
          end
    in
    try_candidates (shrinks_of_list stmts)
  in
  let final, failure = go stmts first_failure in
  (final, failure, !steps)

type failure = {
  index : int;
  seed : int;
  asm : string;
  diags : (Oracle.cell * Diag.t) list;
  divergences : Oracle.divergence list;
  shrink_steps : int;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>program %d of seed %d fails (%d shrink steps to minimum):@," f.index
    f.seed f.shrink_steps;
  List.iter
    (fun (cell, d) ->
      Format.fprintf ppf "  [%a] %a@," Oracle.pp_cell cell Diag.pp d)
    f.diags;
  List.iter
    (fun d -> Format.fprintf ppf "  %a@," Oracle.pp_divergence d)
    f.divergences;
  Format.fprintf ppf "reproducer:@,%s@]" f.asm

let check_index ?cells ?fuel ~seed index =
  let stmts = recipe ~seed index in
  match failing ?cells ?fuel stmts with
  | None -> None
  | Some first ->
      let _, (program, diags, divergences), shrink_steps =
        shrink ?cells ?fuel stmts first
      in
      Some
        {
          index;
          seed;
          asm = Asm.print program;
          diags;
          divergences;
          shrink_steps;
        }

let run ?pool ?cells ?fuel ~programs ~seed () =
  let indices = Array.init programs Fun.id in
  let check i = check_index ?cells ?fuel ~seed i in
  let results =
    match pool with
    | Some p -> Pool.map p check indices
    | None -> Array.map check indices
  in
  Array.fold_left
    (fun acc r -> match acc with Some _ -> acc | None -> r)
    None results
