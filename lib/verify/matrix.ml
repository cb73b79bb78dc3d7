module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Pool = Casted_exec.Pool

type entry = {
  workload : string;
  cell : Oracle.cell;
  diags : Diag.t list;
  divergences : Oracle.divergence list;
}

let run ?pool ?benchmarks ?(size = W.Fault) ?(cells = Oracle.cells ()) () =
  let workloads =
    match benchmarks with
    | None -> Registry.all
    | Some names ->
        List.map
          (fun name ->
            match Registry.find name with
            | Some w -> w
            | None ->
                invalid_arg
                  (Printf.sprintf "Matrix.run: unknown benchmark %s (try: %s)"
                     name
                     (String.concat ", " (Registry.names ()))))
          names
  in
  let map f xs =
    match pool with Some p -> Pool.map p f xs | None -> Array.map f xs
  in
  (* Each workload is built and its NOED reference run once; every
     (workload, cell) job then shares them read-only, since no pipeline
     pass writes its input program. *)
  let prepared =
    map
      (fun (w : W.t) ->
        let program = w.W.build size in
        (w.W.name, program, Oracle.reference program))
      (Array.of_list workloads)
  in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun prep -> List.map (fun c -> (prep, c)) cells)
         (Array.to_list prepared))
  in
  let check ((workload, program, reference), cell) =
    let diags, divergences = Oracle.check_cell ~reference program cell in
    { workload; cell; diags; divergences }
  in
  Array.to_list (map check jobs)

let clean entries =
  List.for_all (fun e -> e.diags = [] && e.divergences = []) entries

let totals entries =
  List.fold_left
    (fun (d, v) e ->
      (d + List.length e.diags, v + List.length e.divergences))
    (0, 0) entries

let pp_entry ppf e =
  Format.fprintf ppf "@[<v>%s @@ %a: " e.workload Oracle.pp_cell e.cell;
  if e.diags = [] && e.divergences = [] then Format.fprintf ppf "clean@]"
  else begin
    Format.fprintf ppf "%d diagnostics, %d divergences@,"
      (List.length e.diags)
      (List.length e.divergences);
    List.iter (fun d -> Format.fprintf ppf "  %a@," Diag.pp d) e.diags;
    List.iter
      (fun d -> Format.fprintf ppf "  %a@," Oracle.pp_divergence d)
      e.divergences;
    Format.fprintf ppf "@]"
  end

let to_json entries =
  let module J = Casted_obs.Json in
  J.List
    (List.map
       (fun e ->
         J.Obj
           [
             ("workload", J.String e.workload);
             ( "scheme",
               J.String (Casted_detect.Scheme.name e.cell.Oracle.scheme) );
             ("issue_width", J.Int e.cell.Oracle.issue_width);
             ("delay", J.Int e.cell.Oracle.delay);
             ("diags", Diag.list_to_json e.diags);
             ( "divergences",
               J.List (List.map Oracle.divergence_to_json e.divergences) );
           ])
       entries)
