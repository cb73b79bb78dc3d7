type role = Original | Replica | Check | Shadow_copy

type t = {
  id : int;
  op : Opcode.t;
  defs : Reg.t array;
  uses : Reg.t array;
  imm : int64;
  fimm : float;
  target : string;
  target2 : string;
  role : role;
  replica_of : int;
  protects : int;
}

let make ~id ~op ?(defs = [||]) ?(uses = [||]) ?(imm = 0L) ?(fimm = 0.0)
    ?(target = "") ?(target2 = "") ?(role = Original) ?(replica_of = -1)
    ?(protects = -1) () =
  { id; op; defs; uses; imm; fimm; target; target2; role; replica_of; protects }

let map_uses f t = { t with uses = Array.map f t.uses }
let map_defs f t = { t with defs = Array.map f t.defs }
let is_terminator t = Opcode.is_terminator t.op
let is_check t = Opcode.is_check t.op

let role_to_string = function
  | Original -> "orig"
  | Replica -> "repl"
  | Check -> "chk"
  | Shadow_copy -> "shad"

let pp_role ppf r = Format.pp_print_string ppf (role_to_string r)

let pp ppf t =
  let pp_regs ppf regs =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      Reg.pp ppf
      (Array.to_list regs)
  in
  Format.fprintf ppf "%-8s" (Opcode.mnemonic t.op);
  if Array.length t.defs > 0 then Format.fprintf ppf " %a" pp_regs t.defs;
  if Array.length t.defs > 0 && Array.length t.uses > 0 then
    Format.pp_print_string ppf " <-";
  if Array.length t.uses > 0 then Format.fprintf ppf " %a" pp_regs t.uses;
  if Opcode.uses_imm t.op then Format.fprintf ppf " #%Ld" t.imm;
  if Opcode.uses_fimm t.op then Format.fprintf ppf " #%g" t.fimm;
  if t.target <> "" then Format.fprintf ppf " @%s" t.target;
  if t.target2 <> "" then Format.fprintf ppf " /%s" t.target2;
  match t.role with
  | Original -> ()
  | role -> Format.fprintf ppf "  ;%a" pp_role role

let to_string t = Format.asprintf "%a" pp t
