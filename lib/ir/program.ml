type t = {
  funcs : Func.t list;
  entry : string;
  mem_size : int;
  data : (int * string) list;
  output_base : int;
  output_len : int;
  shadow_base : int option;
}

let make ~funcs ~entry ?(mem_size = 1 lsl 20) ?(data = []) ?(output_base = 0)
    ?(output_len = 0) ?shadow_base () =
  { funcs; entry; mem_size; data; output_base; output_len; shadow_base }

let find_func t name =
  match List.find_opt (fun f -> f.Func.name = name) t.funcs with
  | Some f -> f
  | None -> raise Not_found

let entry_func t = find_func t t.entry

let num_insns t =
  List.fold_left (fun acc f -> acc + Func.num_insns f) 0 t.funcs

let pp ppf t =
  Format.fprintf ppf "@[<v>program (entry %s, mem %d bytes)" t.entry
    t.mem_size;
  List.iter (fun f -> Format.fprintf ppf "@,@,%a" Func.pp f) t.funcs;
  Format.fprintf ppf "@]"
