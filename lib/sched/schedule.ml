module Insn = Casted_ir.Insn
module Func = Casted_ir.Func
module Program = Casted_ir.Program

type bundle = Insn.t array array

type block_schedule = {
  label : string;
  bundles : bundle array;
  issue_of : (int, int * int) Hashtbl.t;
}

type func_schedule = {
  func : Func.t;
  blocks : block_schedule array;
}

type t = {
  program : Program.t;
  config : Casted_machine.Config.t;
  funcs : (string * func_schedule) list;
}

let block_length b = Array.length b.bundles

let find_func t name =
  match List.assoc_opt name t.funcs with
  | Some fs -> fs
  | None ->
      invalid_arg
        (Printf.sprintf
           "Schedule.find_func: unknown function %S (schedule defines: %s)"
           name
           (String.concat ", " (List.map fst t.funcs)))

let find_block fs label =
  let n = Array.length fs.blocks in
  let rec go i =
    if i >= n then raise Not_found
    else if fs.blocks.(i).label = label then fs.blocks.(i)
    else go (i + 1)
  in
  go 0

let pp_block ppf b =
  Format.fprintf ppf "@[<v>%s: (%d cycles)" b.label (block_length b);
  Array.iteri
    (fun cycle bundle ->
      Format.fprintf ppf "@,%3d |" cycle;
      Array.iteri
        (fun cluster insns ->
          if cluster > 0 then Format.fprintf ppf " ||";
          Array.iter
            (fun i -> Format.fprintf ppf " [%s]" (Insn.to_string i))
            insns)
        bundle)
    b.bundles;
  Format.fprintf ppf "@]"

let pp_func ppf fs =
  Format.fprintf ppf "@[<v>schedule of %s:" fs.func.Func.name;
  Array.iter (fun b -> Format.fprintf ppf "@,%a" pp_block b) fs.blocks;
  Format.fprintf ppf "@]"
