type t = {
  func : Func.t;
  mutable cur_label : string option;
  mutable cur_body : Insn.t list;  (* reversed *)
  mutable done_blocks : Block.t list;  (* reversed *)
  mutable label_counter : int;
}

let create ~name ?(params = []) ?(ret_cls = None) ?(protect = true)
    ?(entry_label = "entry") () =
  let func = Func.make ~name ~params ~ret_cls ~protect () in
  {
    func;
    cur_label = Some entry_label;
    cur_body = [];
    done_blocks = [];
    label_counter = 0;
  }

let gp t = Func.fresh_reg t.func Reg.Gp
let fp t = Func.fresh_reg t.func Reg.Fp
let pr t = Func.fresh_reg t.func Reg.Pr

let fresh_label t stem =
  let n = t.label_counter in
  t.label_counter <- n + 1;
  Printf.sprintf "%s_%d" stem n

let block t label =
  (match t.cur_label with
  | Some open_label ->
      invalid_arg
        (Printf.sprintf "Builder.block: block %s still open" open_label)
  | None -> ());
  t.cur_label <- Some label;
  t.cur_body <- []

let push t insn =
  match t.cur_label with
  | None -> invalid_arg "Builder: emitting outside of a block"
  | Some _ -> t.cur_body <- insn :: t.cur_body

let close t term =
  match t.cur_label with
  | None -> invalid_arg "Builder: terminator outside of a block"
  | Some label ->
      let body = List.rev t.cur_body in
      t.done_blocks <- Block.make ~label ~body ~term :: t.done_blocks;
      t.cur_label <- None;
      t.cur_body <- []

let finish t =
  (match t.cur_label with
  | Some open_label ->
      invalid_arg
        (Printf.sprintf "Builder.finish: block %s has no terminator"
           open_label)
  | None -> ());
  t.func.Func.blocks <- List.rev t.done_blocks;
  t.func

let mk t ~op ?defs ?uses ?imm ?fimm ?target ?target2 () =
  Insn.make ~id:(Func.fresh_id t.func) ~op ?defs ?uses ?imm ?fimm ?target
    ?target2 ()

let emit t ~op ?defs ?uses ?imm ?fimm ?target ?target2 () =
  push t (mk t ~op ?defs ?uses ?imm ?fimm ?target ?target2 ())

(* Allocate or reuse the destination register of class [cls]. *)
let dst_reg t cls = function
  | Some r ->
      if not (Reg.cls_equal (Reg.cls r) cls) then
        invalid_arg "Builder: destination register has the wrong class";
      r
  | None -> Func.fresh_reg t.func cls

let bin t op cls ?dst a b =
  let d = dst_reg t cls dst in
  emit t ~op ~defs:[| d |] ~uses:[| a; b |] ();
  d

let un t op cls ?dst a =
  let d = dst_reg t cls dst in
  emit t ~op ~defs:[| d |] ~uses:[| a |] ();
  d

let un_imm t op cls ?dst a imm =
  let d = dst_reg t cls dst in
  emit t ~op ~defs:[| d |] ~uses:[| a |] ~imm ();
  d

let movi t ?dst v =
  let d = dst_reg t Reg.Gp dst in
  emit t ~op:Opcode.Movi ~defs:[| d |] ~imm:v ();
  d

let mov t ?dst a = un t Opcode.Mov Reg.Gp ?dst a
let add t ?dst a b = bin t Opcode.Add Reg.Gp ?dst a b
let sub t ?dst a b = bin t Opcode.Sub Reg.Gp ?dst a b
let mul t ?dst a b = bin t Opcode.Mul Reg.Gp ?dst a b
let div t ?dst a b = bin t Opcode.Div Reg.Gp ?dst a b
let rem t ?dst a b = bin t Opcode.Rem Reg.Gp ?dst a b
let and_ t ?dst a b = bin t Opcode.And Reg.Gp ?dst a b
let or_ t ?dst a b = bin t Opcode.Or Reg.Gp ?dst a b
let xor t ?dst a b = bin t Opcode.Xor Reg.Gp ?dst a b
let shl t ?dst a b = bin t Opcode.Shl Reg.Gp ?dst a b
let shr t ?dst a b = bin t Opcode.Shr Reg.Gp ?dst a b
let sra t ?dst a b = bin t Opcode.Sra Reg.Gp ?dst a b
let addi t ?dst a v = un_imm t Opcode.Addi Reg.Gp ?dst a v
let muli t ?dst a v = un_imm t Opcode.Muli Reg.Gp ?dst a v
let andi t ?dst a v = un_imm t Opcode.Andi Reg.Gp ?dst a v
let xori t ?dst a v = un_imm t Opcode.Xori Reg.Gp ?dst a v
let shli t ?dst a v = un_imm t Opcode.Shli Reg.Gp ?dst a v
let shri t ?dst a v = un_imm t Opcode.Shri Reg.Gp ?dst a v
let srai t ?dst a v = un_imm t Opcode.Srai Reg.Gp ?dst a v

let cmp t ?dst c a b = bin t (Opcode.Cmp c) Reg.Pr ?dst a b
let cmpi t ?dst c a v = un_imm t (Opcode.Cmpi c) Reg.Pr ?dst a v

let sel t ?dst p a b =
  let d = dst_reg t Reg.Gp dst in
  emit t ~op:Opcode.Sel ~defs:[| d |] ~uses:[| p; a; b |] ();
  d

let fmovi t ?dst v =
  let d = dst_reg t Reg.Fp dst in
  emit t ~op:Opcode.Fmovi ~defs:[| d |] ~fimm:v ();
  d

let fmov t ?dst a = un t Opcode.Fmov Reg.Fp ?dst a
let fadd t ?dst a b = bin t Opcode.Fadd Reg.Fp ?dst a b
let fsub t ?dst a b = bin t Opcode.Fsub Reg.Fp ?dst a b
let fmul t ?dst a b = bin t Opcode.Fmul Reg.Fp ?dst a b
let fdiv t ?dst a b = bin t Opcode.Fdiv Reg.Fp ?dst a b
let fcmp t ?dst c a b = bin t (Opcode.Fcmp c) Reg.Pr ?dst a b
let itof t ?dst a = un t Opcode.Itof Reg.Fp ?dst a
let ftoi t ?dst a = un t Opcode.Ftoi Reg.Gp ?dst a

let ld t ?dst w base off = un_imm t (Opcode.Ld w) Reg.Gp ?dst base off
let lds t ?dst w base off = un_imm t (Opcode.Lds w) Reg.Gp ?dst base off

let st t w ~value ~base off =
  emit t ~op:(Opcode.St w) ~uses:[| value; base |] ~imm:off ()

let fld t ?dst base off =
  let d = dst_reg t Reg.Fp dst in
  emit t ~op:Opcode.Fld ~defs:[| d |] ~uses:[| base |] ~imm:off ();
  d

let fst_ t ~value ~base off =
  emit t ~op:Opcode.Fst ~uses:[| value; base |] ~imm:off ()

let br t target = close t (mk t ~op:Opcode.Br ~target ())

let brc t ?(flag = true) p ~if_ ~else_ =
  close t
    (mk t ~op:(Opcode.Brc flag) ~uses:[| p |] ~target:if_ ~target2:else_ ())

let ret t ?value () =
  let uses = match value with None -> [||] | Some r -> [| r |] in
  close t (mk t ~op:Opcode.Ret ~uses ())

let halt t ?code () =
  let uses = match code with None -> [||] | Some r -> [| r |] in
  close t (mk t ~op:Opcode.Halt ~uses ())

let call t ?dst name args =
  let defs = match dst with None -> [||] | Some r -> [| r |] in
  emit t ~op:Opcode.Call ~defs ~uses:(Array.of_list args) ~target:name ()

let counted_loop t ?(name = "loop") ~from ~until ?(step = 1L) body =
  let head = fresh_label t (name ^ "_head") in
  let body_l = fresh_label t (name ^ "_body") in
  let exit_l = fresh_label t (name ^ "_exit") in
  let iv = movi t from in
  br t head;
  block t head;
  let p = cmpi t Cond.Lt iv until in
  brc t p ~if_:body_l ~else_:exit_l;
  block t body_l;
  body t iv;
  let (_ : Reg.t) = addi t ~dst:iv iv step in
  br t head;
  block t exit_l;
  ()

let if_ t ?(name = "if") p then_ else_ =
  let then_l = fresh_label t (name ^ "_then") in
  let else_l = fresh_label t (name ^ "_else") in
  let join_l = fresh_label t (name ^ "_join") in
  brc t p ~if_:then_l ~else_:else_l;
  block t then_l;
  then_ t;
  br t join_l;
  block t else_l;
  else_ t;
  br t join_l;
  block t join_l;
  ()
