module Scheme = Casted_detect.Scheme

let speedup sweep ~benchmark ~scheme ~issue ~delay =
  let c1 = Perf_sweep.cycles sweep ~benchmark ~scheme ~issue:1 ~delay in
  let ci = Perf_sweep.cycles sweep ~benchmark ~scheme ~issue ~delay in
  float_of_int c1 /. float_of_int ci

(* The paper does not state Fig. 8's delay; we plot delay 1 and say so
   in each panel's title. *)
let delay = 1

let render_all sweep =
  let issues = sweep.Perf_sweep.issues in
  let headers =
    "scheme" :: List.map (fun i -> Printf.sprintf "issue %d" i) issues
  in
  let panel benchmark =
    let row scheme =
      Scheme.name scheme
      :: List.map
           (fun issue ->
             Table.f2 (speedup sweep ~benchmark ~scheme ~issue ~delay))
           issues
    in
    Printf.sprintf "%s (speedup vs issue 1, delay %d)\n%s\n" benchmark delay
      (Table.render ~headers
         [ row Scheme.Noed; row Scheme.Sced; row Scheme.Dced; row Scheme.Casted ])
  in
  String.concat "" (List.map panel sweep.Perf_sweep.benchmarks)
