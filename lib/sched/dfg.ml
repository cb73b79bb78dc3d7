module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block

type edge_kind = Data | Anti | Output | Mem | Ctrl | Check

type edge = { src : int; dst : int; latency : int; kind : edge_kind }

type t = {
  insns : Insn.t array;
  preds : edge list array;
  succs : edge list array;
  latency : int array;
}

let kind_pays_delay = function
  | Data | Check -> true
  | Anti | Output | Mem | Ctrl -> false

(* A call may read and write arbitrary memory, so it orders like a store. *)
let store_like (i : Insn.t) =
  Opcode.is_store i.Insn.op || Opcode.equal i.Insn.op Opcode.Call

let load_like (i : Insn.t) = Opcode.is_load i.Insn.op

let build ~latency block =
  let insns = Array.of_list (Block.insns block) in
  let n = Array.length insns in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let lat = Array.map latency insns in
  let add_edge ~src ~dst ~latency ~kind =
    if src <> dst then begin
      let e = { src; dst; latency; kind } in
      preds.(dst) <- e :: preds.(dst);
      succs.(src) <- e :: succs.(src)
    end
  in
  let last_def : int Reg.Tbl.t = Reg.Tbl.create 64 in
  let readers : int list Reg.Tbl.t = Reg.Tbl.create 64 in
  let by_id = Hashtbl.create 64 in
  Array.iteri (fun i insn -> Hashtbl.replace by_id insn.Insn.id i) insns;
  let last_store = ref (-1) in
  let loads_since_store = ref [] in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    (* RAW: from the last writer of each used register. *)
    Array.iter
      (fun r ->
        (match Reg.Tbl.find_opt last_def r with
        | Some j -> add_edge ~src:j ~dst:i ~latency:lat.(j) ~kind:Data
        | None -> ());
        let rs = Option.value ~default:[] (Reg.Tbl.find_opt readers r) in
        Reg.Tbl.replace readers r (i :: rs))
      insn.Insn.uses;
    (* WAR and WAW on defined registers. *)
    Array.iter
      (fun r ->
        (* Latency 1 (not 0): the simulator retires a bundle's
           instructions sequentially, so a register overwrite must never
           share a cycle with a reader of the old value. *)
        List.iter
          (fun j -> add_edge ~src:j ~dst:i ~latency:1 ~kind:Anti)
          (Option.value ~default:[] (Reg.Tbl.find_opt readers r));
        (match Reg.Tbl.find_opt last_def r with
        | Some j ->
            (* The later write must land after the earlier one. *)
            add_edge ~src:j ~dst:i
              ~latency:(max 1 (lat.(j) - lat.(i) + 1))
              ~kind:Output
        | None -> ());
        Reg.Tbl.replace last_def r i;
        Reg.Tbl.replace readers r [])
      insn.Insn.defs;
    (* Conservative memory ordering: stores (and calls) are barriers for
       all memory operations; loads may reorder freely among themselves. *)
    if store_like insn then begin
      if !last_store >= 0 then
        add_edge ~src:!last_store ~dst:i ~latency:1 ~kind:Mem;
      List.iter
        (fun j -> add_edge ~src:j ~dst:i ~latency:1 ~kind:Mem)
        !loads_since_store;
      last_store := i;
      loads_since_store := []
    end
    else if load_like insn then begin
      if !last_store >= 0 then
        add_edge ~src:!last_store ~dst:i ~latency:1 ~kind:Mem;
      loads_since_store := i :: !loads_since_store
    end;
    (* A check must complete before the instruction it guards issues. *)
    if Insn.is_check insn && insn.Insn.protects >= 0 then begin
      match Hashtbl.find_opt by_id insn.Insn.protects with
      | Some j when j > i -> add_edge ~src:i ~dst:j ~latency:lat.(i) ~kind:Check
      | Some _ | None -> ()
    end
  done;
  (* Everything must issue no later than the terminator. *)
  for i = 0 to n - 2 do
    add_edge ~src:i ~dst:(n - 1) ~latency:0 ~kind:Ctrl
  done;
  { insns; preds; succs; latency = lat }

let num_nodes t = Array.length t.insns

let heights t =
  let n = num_nodes t in
  let h = Array.make n 0 in
  (* Edges point forward in program order, so a reverse sweep suffices. *)
  for i = n - 1 downto 0 do
    h.(i) <- t.latency.(i);
    List.iter
      (fun (e : edge) -> h.(i) <- max h.(i) (e.latency + h.(e.dst)))
      t.succs.(i)
  done;
  h

let critical_path t =
  Array.fold_left max 0 (heights t)

let pp ppf t =
  Format.fprintf ppf "@[<v>dfg (%d nodes):" (num_nodes t);
  Array.iteri
    (fun i insn ->
      Format.fprintf ppf "@,%3d: %a" i Insn.pp insn;
      List.iter
        (fun e ->
          Format.fprintf ppf " ->%d(%d%s)" e.dst e.latency
            (match e.kind with
            | Data -> "d"
            | Anti -> "a"
            | Output -> "o"
            | Mem -> "m"
            | Ctrl -> "c"
            | Check -> "k"))
        t.succs.(i))
    t.insns;
  Format.fprintf ppf "@]"
