let write_file ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* Metrics. *)

let metrics_text () =
  match Metrics.snapshot () with
  | [] -> ""
  | snap ->
      let width =
        List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 0 snap
      in
      let line (name, v) =
        let detail =
          match v with
          | Metrics.Counter n -> string_of_int n
          | Metrics.Gauge { high; samples } ->
              Printf.sprintf "high %g (%d samples)" high samples
          | Metrics.Histogram { count; sum; min; max } ->
              Printf.sprintf "n %d, sum %g, min %g, max %g, mean %g" count sum
                min max
                (if count = 0 then 0.0 else sum /. float_of_int count)
        in
        Printf.sprintf "%-*s %s" width name detail
      in
      String.concat "\n" (List.map line snap) ^ "\n"

(* Traces. *)

let write_trace ~path =
  write_file ~path (Json.to_string (Trace.to_chrome ()) ^ "\n")
