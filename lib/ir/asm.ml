(* Printer and recursive-descent parser for the textual IR format. *)

let spf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let reg_str r = Reg.to_string r

let mem_operand base off = spf "[%s%+Ld]" (reg_str base) off

(* Ids are printed only for instructions that detection annotations
   reference, keeping hand-written files free of noise. *)
let referenced_ids func =
  let ids = Hashtbl.create 32 in
  Func.iter_insns func (fun _ i ->
      if i.Insn.replica_of >= 0 then Hashtbl.replace ids i.Insn.replica_of ();
      if i.Insn.protects >= 0 then Hashtbl.replace ids i.Insn.protects ());
  ids

let annot (i : Insn.t) =
  match i.Insn.role with
  | Insn.Original -> ""
  | Insn.Replica -> spf " @repl(%d)" i.Insn.replica_of
  | Insn.Shadow_copy ->
      if i.Insn.replica_of >= 0 then spf " @shad(%d)" i.Insn.replica_of
      else " @shad()"
  | Insn.Check -> spf " @chk(%d)" i.Insn.protects

let insn_body (i : Insn.t) =
  let u n = reg_str i.Insn.uses.(n) in
  let d n = reg_str i.Insn.defs.(n) in
  let m = Opcode.mnemonic i.Insn.op in
  match i.Insn.op with
  | Opcode.Movi -> spf "%s %s, %Ld" m (d 0) i.Insn.imm
  | Opcode.Fmovi -> spf "%s %s, %h" m (d 0) i.Insn.fimm
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai | Opcode.Cmpi _ ->
      spf "%s %s, %s, %Ld" m (d 0) (u 0) i.Insn.imm
  | Opcode.Ld _ | Opcode.Lds _ | Opcode.Fld ->
      spf "%s %s, %s" m (d 0) (mem_operand i.Insn.uses.(0) i.Insn.imm)
  | Opcode.St _ | Opcode.Fst ->
      spf "%s %s, %s" m (u 0) (mem_operand i.Insn.uses.(1) i.Insn.imm)
  | Opcode.Br -> spf "%s %s" m i.Insn.target
  | Opcode.Brc _ -> spf "%s %s, %s, %s" m (u 0) i.Insn.target i.Insn.target2
  | Opcode.Call ->
      let args =
        String.concat ", " (Array.to_list (Array.map reg_str i.Insn.uses))
      in
      if Array.length i.Insn.defs > 0 then
        spf "%s %s = %s(%s)" m (d 0) i.Insn.target args
      else spf "%s %s(%s)" m i.Insn.target args
  | Opcode.Ret | Opcode.Halt ->
      if Array.length i.Insn.uses > 0 then spf "%s %s" m (u 0) else m
  | Opcode.Nop -> m
  | Opcode.Chk -> spf "%s %s, %s" m (u 0) (u 1)
  | _ ->
      (* Generic register form: defs then uses, comma separated. *)
      let parts =
        Array.to_list (Array.map reg_str i.Insn.defs)
        @ Array.to_list (Array.map reg_str i.Insn.uses)
      in
      spf "%s %s" m (String.concat ", " parts)

let print_insn ids (i : Insn.t) =
  let id_prefix =
    if Hashtbl.mem ids i.Insn.id then spf "%%%d: " i.Insn.id else ""
  in
  spf "  %s%s%s" id_prefix (insn_body i) (annot i)

let print_func func =
  let buf = Buffer.create 1024 in
  let ids = referenced_ids func in
  let params =
    String.concat ", " (List.map reg_str func.Func.params)
  in
  let ret =
    match func.Func.ret_cls with
    | None -> ""
    | Some c -> spf " : %s" (Format.asprintf "%a" Reg.pp_cls c)
  in
  let prot = if func.Func.protect then "" else " unprotected" in
  Buffer.add_string buf (spf "func %s(%s)%s%s {\n" func.Func.name params ret prot);
  List.iter
    (fun b ->
      Buffer.add_string buf (spf "%s:\n" b.Block.label);
      List.iter
        (fun i -> Buffer.add_string buf (print_insn ids i ^ "\n"))
        (Block.insns b))
    func.Func.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (spf "%02X" (Char.code c))) s;
  Buffer.contents buf

let print (p : Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (spf "program entry=%s mem=%d output=%d:%d%s\n" p.Program.entry
       p.Program.mem_size p.Program.output_base p.Program.output_len
       (match p.Program.shadow_base with
       | None -> ""
       | Some b -> spf " shadow=%d" b));
  List.iter
    (fun (addr, bytes) ->
      Buffer.add_string buf (spf "data %d hex:%s\n" addr (hex_of_string bytes)))
    p.Program.data;
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (print_func f))
    p.Program.funcs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

(* Tokenise one line: idents/numbers, punctuation, annotations. *)
let tokenize line_no line =
  (* Strip comments. *)
  let line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' || c = ',' then incr i
    else if
      is_word c
      || ((c = '+' || c = '-') && !i + 1 < n && is_digit line.[!i + 1])
    then begin
      (* A word, or a signed number (so "[r0+16]" splits after "r0").
         Signs directly after an exponent marker stay inside the token,
         keeping float literals like "0x1.8p-4" and "1e-05" whole. *)
      let j = ref (!i + 1) in
      let continues k =
        is_word line.[k]
        || ((line.[k] = '+' || line.[k] = '-')
           && k > 0
           &&
           match line.[k - 1] with
           | 'e' | 'E' | 'p' | 'P' -> true
           | _ -> false)
      in
      while !j < n && continues !j do
        incr j
      done;
      toks := String.sub line !i (!j - !i) :: !toks;
      i := !j
    end
    else
      match c with
      | '[' | ']' | '(' | ')' | ':' | '=' | '%' | '@' | '{' | '}' ->
          toks := String.make 1 c :: !toks;
          incr i
      | _ -> fail line_no "unexpected character %C" c
  done;
  List.rev !toks

let parse_reg line s =
  let cls_of = function
    | 'r' -> Some Reg.Gp
    | 'f' -> Some Reg.Fp
    | 'p' -> Some Reg.Pr
    | _ -> None
  in
  if String.length s < 2 then fail line "bad register %S" s
  else
    match (cls_of s.[0], int_of_string_opt (String.sub s 1 (String.length s - 1))) with
    | Some cls, Some idx when idx >= 0 -> Reg.make cls idx
    | _ -> fail line "bad register %S" s

let parse_int64 line s =
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> fail line "bad integer %S" s

let parse_float line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail line "bad float %S" s

(* Mnemonic -> opcode. *)
let opcode_table =
  let tbl = Hashtbl.create 128 in
  List.iter (fun op -> Hashtbl.replace tbl (Opcode.mnemonic op) op) Opcode.all;
  tbl

(* Partially parsed instruction, before id/annotation fixups. *)
type raw_insn = {
  written_id : int option;
  op : Opcode.t;
  defs : Reg.t array;
  uses : Reg.t array;
  imm : int64;
  fimm : float;
  target : string;
  target2 : string;
  raw_role : Insn.role;
  raw_ref : int;  (* replica_of / protects as written *)
}

let parse_mem line toks =
  (* [ reg off ] — the sign is folded into the offset token. *)
  match toks with
  | "[" :: base :: off :: "]" :: rest ->
      ((parse_reg line base, parse_int64 line off), rest)
  | _ -> fail line "expected a memory operand [reg+off]"

let parse_annot line toks =
  match toks with
  | [] -> (Insn.Original, -1, [])
  | [ "@"; "repl"; "("; id; ")" ] ->
      (Insn.Replica, int_of_string id, [])
  | [ "@"; "shad"; "("; id; ")" ] -> (Insn.Shadow_copy, int_of_string id, [])
  | [ "@"; "shad"; "("; ")" ] -> (Insn.Shadow_copy, -1, [])
  | [ "@"; "chk"; "("; id; ")" ] -> (Insn.Check, int_of_string id, [])
  | t :: _ -> fail line "unexpected trailing token %S" t

let parse_insn line_no toks =
  (* Optional '%id:' prefix. *)
  let written_id, toks =
    match toks with
    | "%" :: id :: ":" :: rest -> (
        match int_of_string_opt id with
        | Some v -> (Some v, rest)
        | None -> fail line_no "bad instruction id %S" id)
    | _ -> (None, toks)
  in
  let mnemonic, toks =
    match toks with
    | m :: rest -> (m, rest)
    | [] -> fail line_no "empty instruction"
  in
  let op =
    match Hashtbl.find_opt opcode_table mnemonic with
    | Some op -> op
    | None -> fail line_no "unknown mnemonic %S" mnemonic
  in
  let base =
    {
      written_id;
      op;
      defs = [||];
      uses = [||];
      imm = 0L;
      fimm = 0.0;
      target = "";
      target2 = "";
      raw_role = Insn.Original;
      raw_ref = -1;
    }
  in
  let with_annot raw rest =
    let role, r, _ = parse_annot line_no rest in
    { raw with raw_role = role; raw_ref = r }
  in
  let reg = parse_reg line_no in
  match op with
  | Opcode.Movi -> (
      match toks with
      | d :: v :: rest ->
          with_annot
            { base with defs = [| reg d |]; imm = parse_int64 line_no v }
            rest
      | _ -> fail line_no "movi dst, imm")
  | Opcode.Fmovi -> (
      match toks with
      | d :: v :: rest ->
          with_annot
            { base with defs = [| reg d |]; fimm = parse_float line_no v }
            rest
      | _ -> fail line_no "fmovi dst, fimm")
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai | Opcode.Cmpi _ -> (
      match toks with
      | d :: s :: v :: rest ->
          with_annot
            {
              base with
              defs = [| reg d |];
              uses = [| reg s |];
              imm = parse_int64 line_no v;
            }
            rest
      | _ -> fail line_no "%s dst, src, imm" mnemonic)
  | Opcode.Ld _ | Opcode.Lds _ | Opcode.Fld -> (
      match toks with
      | d :: rest ->
          let (b, off), rest = parse_mem line_no rest in
          with_annot
            { base with defs = [| reg d |]; uses = [| b |]; imm = off }
            rest
      | _ -> fail line_no "%s dst, [base+off]" mnemonic)
  | Opcode.St _ | Opcode.Fst -> (
      match toks with
      | v :: rest ->
          let (b, off), rest = parse_mem line_no rest in
          with_annot { base with uses = [| reg v; b |]; imm = off } rest
      | _ -> fail line_no "%s value, [base+off]" mnemonic)
  | Opcode.Br -> (
      match toks with
      | t :: rest -> with_annot { base with target = t } rest
      | _ -> fail line_no "br label")
  | Opcode.Brc _ -> (
      match toks with
      | p :: t1 :: t2 :: rest ->
          with_annot
            { base with uses = [| reg p |]; target = t1; target2 = t2 }
            rest
      | _ -> fail line_no "brc.t/f pred, taken, fallthrough")
  | Opcode.Call ->
      (* call [dst =] name ( args ) *)
      let dst, toks =
        match toks with
        | d :: "=" :: rest when d.[0] = 'r' || d.[0] = 'f' -> ([| reg d |], rest)
        | _ -> ([||], toks)
      in
      let name, toks =
        match toks with
        | n :: "(" :: rest -> (n, rest)
        | _ -> fail line_no "call [dst =] name(args)"
      in
      let rec args acc = function
        | ")" :: rest -> (List.rev acc, rest)
        | a :: rest -> args (reg a :: acc) rest
        | [] -> fail line_no "unterminated call arguments"
      in
      let arglist, rest = args [] toks in
      with_annot
        { base with defs = dst; uses = Array.of_list arglist; target = name }
        rest
  | Opcode.Ret | Opcode.Halt -> (
      match toks with
      | [] -> base
      | v :: rest when v <> "@" -> with_annot { base with uses = [| reg v |] } rest
      | rest -> with_annot base rest)
  | Opcode.Nop -> with_annot base toks
  | _ ->
      (* Generic register form: signature tells how many defs/uses. *)
      let ndefs, nuses =
        match (op, Opcode.signature op) with
        | _, Some (ds, us) -> (List.length ds, List.length us)
        | Opcode.Chk, None -> (0, 2)
        | _ -> fail line_no "cannot parse %S" mnemonic
      in
      let rec take n acc toks =
        if n = 0 then (List.rev acc, toks)
        else
          match toks with
          | t :: rest -> take (n - 1) (reg t :: acc) rest
          | [] -> fail line_no "%s: missing operands" mnemonic
      in
      let defs, toks = take ndefs [] toks in
      let uses, rest = take nuses [] toks in
      with_annot
        { base with defs = Array.of_list defs; uses = Array.of_list uses }
        rest

let string_of_hex line s =
  let n = String.length s in
  if n mod 2 <> 0 then fail line "odd-length hex data";
  String.init (n / 2) (fun i ->
      let v = int_of_string ("0x" ^ String.sub s (2 * i) 2) in
      Char.chr v)

(* Parse the whole file. *)
let parse_lines lines =
  let entry = ref "" in
  let mem_size = ref (1 lsl 20) in
  let shadow_base = ref None in
  let output = ref (0, 0) in
  let data = ref [] in
  let funcs = ref [] in
  (* Current function state. *)
  let cur_func : Func.t option ref = ref None in
  let cur_blocks = ref [] in
  let cur_label = ref None in
  let cur_insns = ref [] in
  let id_map = Hashtbl.create 64 in
  let pending : (raw_insn * Insn.t) list ref = ref [] in
  let close_block line =
    match (!cur_label, !cur_insns) with
    | None, [] -> ()
    | None, _ -> fail line "instructions outside a block"
    | Some label, insns -> (
        match List.rev insns with
        | [] -> fail line "empty block %s" label
        | insns -> (
            let body, term =
              match List.rev insns with
              | t :: rev_body -> (List.rev rev_body, t)
              | [] -> assert false
            in
            if not (Insn.is_terminator term) then
              fail line "block %s does not end in a terminator" label;
            cur_blocks := Block.make ~label ~body ~term :: !cur_blocks;
            cur_label := None;
            cur_insns := []))
  in
  let close_func line =
    match !cur_func with
    | None -> ()
    | Some f ->
        close_block line;
        f.Func.blocks <- List.rev !cur_blocks;
        (* Fix up annotation references through the id map. *)
        List.iter
          (fun ((raw : raw_insn), (insn : Insn.t)) ->
            if raw.raw_ref >= 0 then begin
              let new_id =
                match Hashtbl.find_opt id_map raw.raw_ref with
                | Some id -> id
                | None -> fail line "annotation references unknown id %%%d" raw.raw_ref
              in
              let fixed =
                match raw.raw_role with
                | Insn.Replica | Insn.Shadow_copy ->
                    { insn with Insn.replica_of = new_id }
                | Insn.Check -> { insn with Insn.protects = new_id }
                | Insn.Original -> insn
              in
              (* Replace in place inside the blocks. *)
              List.iter
                (fun b ->
                  b.Block.body <-
                    List.map
                      (fun (j : Insn.t) ->
                        if j.Insn.id = insn.Insn.id then fixed else j)
                      b.Block.body;
                  if b.Block.term.Insn.id = insn.Insn.id then
                    b.Block.term <- fixed)
                f.Func.blocks
            end)
          !pending;
        Func.normalize_reg_counts f;
        funcs := f :: !funcs;
        cur_func := None;
        cur_blocks := [];
        Hashtbl.reset id_map;
        pending := []
  in
  List.iteri
    (fun idx raw_line ->
      let line = idx + 1 in
      let toks = tokenize line raw_line in
      match toks with
      | [] -> ()
      | "program" :: rest ->
          let rec scan = function
            | "entry" :: "=" :: v :: rest' ->
                entry := v;
                scan rest'
            | "mem" :: "=" :: v :: rest' ->
                mem_size := int_of_string v;
                scan rest'
            | "output" :: "=" :: base :: ":" :: len :: rest' ->
                output := (int_of_string base, int_of_string len);
                scan rest'
            | "shadow" :: "=" :: v :: rest' ->
                shadow_base := Some (int_of_string v);
                scan rest'
            | t :: _ -> fail line "bad program header near %S" t
            | [] -> ()
          in
          scan rest
      | [ "data"; addr; "hex"; ":"; hex ] ->
          data := (int_of_string addr, string_of_hex line hex) :: !data
      | "data" :: _ -> fail line "expected data ADDR hex:BYTES"
      | "func" :: name :: "(" :: rest ->
          close_func line;
          let rec params acc = function
            | ")" :: rest' -> (List.rev acc, rest')
            | p :: rest' -> params (parse_reg line p :: acc) rest'
            | [] -> fail line "unterminated parameter list"
          in
          let ps, rest = params [] rest in
          let ret_cls, rest =
            match rest with
            | ":" :: c :: rest' ->
                let cls =
                  match c with
                  | "gp" | "r" -> Reg.Gp
                  | "fp" | "f" -> Reg.Fp
                  | "pr" | "p" -> Reg.Pr
                  | _ -> fail line "bad return class %S" c
                in
                (Some cls, rest')
            | _ -> (None, rest)
          in
          let protect, rest =
            match rest with
            | "unprotected" :: rest' -> (false, rest')
            | _ -> (true, rest)
          in
          (match rest with
          | [ "{" ] | [] -> ()
          | t :: _ -> fail line "unexpected token %S after func header" t);
          cur_func :=
            Some (Func.make ~name ~params:ps ~ret_cls:(ret_cls) ~protect ())
      | [ "}" ] -> close_func line
      | [ label; ":" ] ->
          close_block line;
          cur_label := Some label
      | _ -> (
          match !cur_func with
          | None -> fail line "instruction outside a function"
          | Some f ->
              if !cur_label = None then fail line "instruction outside a block";
              let raw = parse_insn line toks in
              let id = Func.fresh_id f in
              (match raw.written_id with
              | Some w -> Hashtbl.replace id_map w id
              | None -> ());
              let insn =
                Insn.make ~id ~op:raw.op ~defs:raw.defs ~uses:raw.uses
                  ~imm:raw.imm ~fimm:raw.fimm ~target:raw.target
                  ~target2:raw.target2 ~role:raw.raw_role
                  ~replica_of:
                    (match raw.raw_role with
                    | Insn.Replica | Insn.Shadow_copy -> raw.raw_ref
                    | _ -> -1)
                  ~protects:
                    (match raw.raw_role with
                    | Insn.Check -> raw.raw_ref
                    | _ -> -1)
                  ()
              in
              if raw.raw_ref >= 0 then pending := (raw, insn) :: !pending;
              cur_insns := insn :: !cur_insns))
    lines;
  close_func (List.length lines);
  if !entry = "" then fail 0 "missing program header";
  let output_base, output_len = !output in
  Program.make ~funcs:(List.rev !funcs) ~entry:!entry ~mem_size:!mem_size
    ~data:(List.rev !data) ~output_base ~output_len ?shadow_base:!shadow_base
    ()

let parse text =
  try Ok (parse_lines (String.split_on_char '\n' text)) with
  | Parse_error (line, msg) -> Error (spf "line %d: %s" line msg)
  | Failure msg -> Error msg

let parse_exn text =
  match parse text with
  | Ok p -> p
  | Error msg -> invalid_arg ("Asm.parse: " ^ msg)
