(* The benchmark's own tests. Runs every workload at reduced size, once
   untraced and once traced, and checks that

   - the traced per-layer rows plus unattributed_s sum to the traced
     wall time, and unattributed_s stays a small share of it;
   - the traced and untraced result digests are equal (tracing is
     passive);
   - every metric name is well formed, every end-to-end value is
     positive, and the names match BENCHMARK.json.

   Usage: selftest.exe --work-dir DIR --benchmark-json FILE
   (python3 perfbench/run.py --selftest builds and runs it). *)

module H = Harness

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* (name, unit) of each metric BENCHMARK.json declares under [key]. *)
let declared json key =
  match H.Json.member key json with
  | Some (H.Json.List l) ->
      List.filter_map
        (fun m ->
          match (H.Json.member "name" m, H.Json.member "unit" m) with
          | Some (H.Json.String n), Some (H.Json.String u) -> Some (n, u)
          | _ -> None)
        l
  | _ -> []

let () =
  let work_dir, bench_json =
    match Array.to_list Sys.argv with
    | [ _; "--work-dir"; w; "--benchmark-json"; b ] -> (w, b)
    | _ ->
        prerr_endline "usage: selftest.exe --work-dir DIR --benchmark-json FILE";
        exit 2
  in
  let json =
    match H.Json.parse (In_channel.with_open_text bench_json In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith (bench_json ^ ": " ^ msg)
  in
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let env =
    {
      H.scale = H.reduced;
      seed = 0xCA57ED;
      jobs = min 2 (Domain.recommended_domain_count ());
      work_dir;
    }
  in
  List.iter
    (fun (name, w) ->
      let check what ok = check (name ^ ": " ^ what) ok in
      let u = H.run_rep env w ~trace:false and t = H.run_rep env w ~trace:true in
      check "cells were simulated" (u.H.out.H.cells <> []);
      check "no invariant violations" (u.H.out.H.problems = [] && t.H.out.H.problems = []);
      check "traced digest equals untraced digest"
        (H.digest_of_cells u.H.out.H.cells = H.digest_of_cells t.H.out.H.cells);
      let row n = List.assoc n t.H.layers in
      let wall = row "trace.wall_s" and unattributed = row "unattributed_s" in
      let sum =
        List.fold_left (fun a n -> a +. row n) 0.0 H.leaf_rows
        +. unattributed +. row "pool.idle_s"
      in
      check
        (Printf.sprintf "rows + unattributed_s = trace.wall_s (%.6f vs %.6f)" sum wall)
        (Float.abs (sum -. wall) <= 1e-9 *. Float.max 1.0 wall);
      check
        (Printf.sprintf "unattributed_s is a small share (%.4f of %.4f s)" unattributed wall)
        (unattributed >= -1e-6 && unattributed <= 0.1 *. wall);
      let e2e = H.end_to_end ~setups:[ u.H.setup_s ] [ u; t ] in
      let layers = H.per_layer [ u; t ] in
      let names l = List.map (fun (n, _, u) -> (n, u)) l in
      check "metric names are well formed"
        (List.for_all (fun (n, _) -> H.valid_metric_name n) (names e2e @ names layers));
      check "end-to-end values are positive" (List.for_all (fun (_, v, _) -> v > 0.0) e2e);
      check "end-to-end names and units match BENCHMARK.json"
        (names e2e = declared json "end_to_end");
      check "per-layer names and units match BENCHMARK.json"
        (names layers = declared json "per_layer"))
    H.workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
