type width = W1 | W2 | W4 | W8

let width_bytes = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8
let pp_width ppf w = Format.pp_print_int ppf (width_bytes w)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sra
  | Mov
  | Movi
  | Addi
  | Muli
  | Andi
  | Xori
  | Shli
  | Shri
  | Srai
  | Cmp of Cond.t
  | Cmpi of Cond.t
  | Sel
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmov
  | Fmovi
  | Fcmp of Cond.t
  | Itof
  | Ftoi
  | Ld of width
  | Lds of width
  | St of width
  | Fld
  | Fst
  | Br
  | Brc of bool
  | Call
  | Ret
  | Halt
  | Chk
  | Cpt
  | Nop

let all =
  let widths = [ W1; W2; W4; W8 ] in
  [
    Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra; Mov; Movi; Addi;
    Muli; Andi; Xori; Shli; Shri; Srai;
  ]
  @ List.map (fun c -> Cmp c) Cond.all
  @ List.map (fun c -> Cmpi c) Cond.all
  @ [ Sel; Fadd; Fsub; Fmul; Fdiv; Fmov; Fmovi ]
  @ List.map (fun c -> Fcmp c) Cond.all
  @ [ Itof; Ftoi ]
  @ List.map (fun w -> Ld w) widths
  @ List.map (fun w -> Lds w) widths
  @ List.map (fun w -> St w) widths
  @ [ Fld; Fst; Br; Brc true; Brc false; Call; Ret; Halt; Chk; Cpt; Nop ]

let is_load = function Ld _ | Lds _ | Fld -> true | _ -> false
let is_store = function St _ | Fst -> true | _ -> false
let is_mem op = is_load op || is_store op

let is_control_flow = function
  | Br | Brc _ | Call | Ret | Halt -> true
  | _ -> false

let is_terminator = function Br | Brc _ | Ret | Halt -> true | _ -> false
let is_check = function Chk -> true | _ -> false
let is_checkpoint = function Cpt -> true | _ -> false

let replicable op =
  (not (is_store op))
  && (not (is_control_flow op))
  && (not (is_check op))
  && not (is_checkpoint op)

let has_side_effect op =
  is_store op || is_control_flow op || is_check op || is_checkpoint op

let uses_imm = function
  | Movi | Addi | Muli | Andi | Xori | Shli | Shri | Srai | Cmpi _ | Ld _ | Lds _
  | St _ | Fld | Fst ->
      true
  | _ -> false

let uses_fimm = function Fmovi -> true | _ -> false

let signature = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sra ->
      Some ([ Reg.Gp ], [ Reg.Gp; Reg.Gp ])
  | Mov -> Some ([ Reg.Gp ], [ Reg.Gp ])
  | Movi -> Some ([ Reg.Gp ], [])
  | Addi | Muli | Andi | Xori | Shli | Shri | Srai ->
      Some ([ Reg.Gp ], [ Reg.Gp ])
  | Cmp _ -> Some ([ Reg.Pr ], [ Reg.Gp; Reg.Gp ])
  | Cmpi _ -> Some ([ Reg.Pr ], [ Reg.Gp ])
  | Sel -> Some ([ Reg.Gp ], [ Reg.Pr; Reg.Gp; Reg.Gp ])
  | Fadd | Fsub | Fmul | Fdiv -> Some ([ Reg.Fp ], [ Reg.Fp; Reg.Fp ])
  | Fmov -> Some ([ Reg.Fp ], [ Reg.Fp ])
  | Fmovi -> Some ([ Reg.Fp ], [])
  | Fcmp _ -> Some ([ Reg.Pr ], [ Reg.Fp; Reg.Fp ])
  | Itof -> Some ([ Reg.Fp ], [ Reg.Gp ])
  | Ftoi -> Some ([ Reg.Gp ], [ Reg.Fp ])
  | Ld _ | Lds _ -> Some ([ Reg.Gp ], [ Reg.Gp ])
  | St _ -> Some ([], [ Reg.Gp; Reg.Gp ])
  | Fld -> Some ([ Reg.Fp ], [ Reg.Gp ])
  | Fst -> Some ([], [ Reg.Fp; Reg.Gp ])
  | Br -> Some ([], [])
  | Brc _ -> Some ([], [ Reg.Pr ])
  | Call | Ret -> None
  | Halt -> None
  | Chk -> None
  | Cpt -> Some ([], [])
  | Nop -> Some ([], [])

let equal (a : t) (b : t) = a = b

let mnemonic = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sra -> "sra"
  | Mov -> "mov"
  | Movi -> "movi"
  | Addi -> "addi"
  | Muli -> "muli"
  | Andi -> "andi"
  | Xori -> "xori"
  | Shli -> "shli"
  | Shri -> "shri"
  | Srai -> "srai"
  | Cmp c -> "cmp." ^ Cond.to_string c
  | Cmpi c -> "cmpi." ^ Cond.to_string c
  | Sel -> "sel"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fmov -> "fmov"
  | Fmovi -> "fmovi"
  | Fcmp c -> "fcmp." ^ Cond.to_string c
  | Itof -> "itof"
  | Ftoi -> "ftoi"
  | Ld w -> Format.asprintf "ld%a" pp_width w
  | Lds w -> Format.asprintf "lds%a" pp_width w
  | St w -> Format.asprintf "st%a" pp_width w
  | Fld -> "fld"
  | Fst -> "fst"
  | Br -> "br"
  | Brc true -> "brc.t"
  | Brc false -> "brc.f"
  | Call -> "call"
  | Ret -> "ret"
  | Halt -> "halt"
  | Chk -> "chk"
  | Cpt -> "cpt"
  | Nop -> "nop"

let pp ppf t = Format.pp_print_string ppf (mnemonic t)
