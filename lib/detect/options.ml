type scope = Full | Store_slice

type t = {
  check_stores : bool;
  check_branches : bool;
  check_calls : bool;
  shadow_params : bool;
  scope : scope;
}

let default =
  {
    check_stores = true;
    check_branches = true;
    check_calls = true;
    shadow_params = true;
    scope = Full;
  }

(* Which non-replicable instructions get their operands checked (SWIFT)
   or voted on (TMR): the one reading of the three check flags shared by
   both hardening transforms. *)
let wants_check o (insn : Casted_ir.Insn.t) =
  let open Casted_ir in
  match insn.Insn.op with
  | Opcode.St _ | Opcode.Fst -> o.check_stores
  | Opcode.Brc _ -> o.check_branches
  | Opcode.Call | Opcode.Ret | Opcode.Halt -> o.check_calls
  | _ -> false
