(* The repo benchmark. Usage (normally through perfbench/run.py, which
   builds this program first):

     bench.exe --workload sweep|coverage --seed N --seconds S
               --trace 0|1 [--work-dir DIR] [--write-refs]

   Run it from the root of a checkout: it reads its references from
   perfbench/refs and hashes lib/ and perfbench/ for the provenance
   record.

   A run repeats the workload (fresh engine, pool and store each time)
   until the next repetition would overrun [--seconds], and reports
   medians. With [--trace 0] every repetition is untraced and the last
   stdout line carries the end-to-end metrics; with [--trace 1]
   untraced and traced repetitions alternate and it carries the
   per-layer rows of the median traced repetition plus the tracing
   overhead. The line before it is a provenance record.

   Seeds: the references in perfbench/refs were made with the default
   campaign seed 0xCA57ED (13260781). Seed 0x5EED11 (6221073) is held
   out: no tuning uses it, so a later performance claim can be checked
   on it. Any other seed runs the seed-independent checks only. *)

module H = Harness

let default_seed = 0xCA57ED

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep|coverage --seed N --seconds S \
     --trace 0|1 [--work-dir DIR] [--write-refs]";
  exit 2

type args = {
  workload : H.workload;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  write_refs : bool;
}

let parse_args () =
  let workload = ref None and seed = ref default_seed and seconds = ref None in
  let trace = ref false and work_dir = ref "_build/perfbench" and write_refs = ref false in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
        Printf.eprintf "bench: %s expects an integer, got %S\n" name v;
        exit 2
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v H.workloads with
        | Some w -> workload := Some w
        | None ->
            Printf.eprintf "bench: unknown workload %S\n" v;
            exit 2);
        go rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_arg "--seconds" v));
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ ->
            Printf.eprintf "bench: --trace expects 0 or 1, got %S\n" v;
            exit 2);
        go rest
    | "--work-dir" :: v :: rest ->
        work_dir := v;
        go rest
    | "--write-refs" :: rest ->
        write_refs := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seconds) with
  | Some workload, Some seconds ->
      { workload; seed = !seed; seconds; trace = !trace; work_dir = !work_dir; write_refs = !write_refs }
  | _ -> usage ()

(* {2 References} *)

(* perfbench/refs/<workload>.txt: a "seed N" header, then one
   "<cell id> <digest> <golden digest>" line per cell. *)
type refs = { ref_seed : int; ref_cells : H.cell list }

let refs_path a = Filename.concat "perfbench/refs" (H.workload_name a.workload ^ ".txt")

let read_refs a =
  match In_channel.with_open_text (refs_path a) In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "bench: cannot read references: %s\n" msg;
      exit 1
  | text -> (
      match List.filter (( <> ) "") (String.split_on_char '\n' text) with
      | header :: lines ->
          let ref_seed = Scanf.sscanf header "seed %d" Fun.id in
          let cell line =
            Scanf.sscanf line "%s %s %s" (fun id digest golden -> { H.id; digest; golden })
          in
          { ref_seed; ref_cells = List.map cell lines }
      | [] ->
          Printf.eprintf "bench: empty reference file %s\n" (refs_path a);
          exit 1)

let write_refs a cells =
  Out_channel.with_open_text (refs_path a) (fun oc ->
      Printf.fprintf oc "seed %d\n" a.seed;
      List.iter
        (fun (c : H.cell) -> Printf.fprintf oc "%s %s %s\n" c.H.id c.H.digest c.H.golden)
        cells)

(* Failed cells of one repetition: raised, or disagreeing with the
   reference (the full digest when the reference was made with this
   seed, else the seed-independent golden digest), or with the first
   repetition of this run. *)
let failed_cells ~refs ~full ~first cells =
  let n_ref = List.length refs.ref_cells in
  if List.length cells <> n_ref || List.length first <> n_ref then List.length cells
  else
    List.fold_left2
      (fun acc (c, r) (f : H.cell) ->
        let ok =
          c.H.id = r.H.id
          && (if full then c.H.digest = r.H.digest else c.H.golden = r.H.golden)
          && c.H.digest = f.H.digest
        in
        if ok then acc else acc + 1)
      0
      (List.combine cells refs.ref_cells)
      first

(* {2 Provenance} *)

(* The checked-out commit, read from .git without running git;
   "unknown" in a checkout without git metadata. *)
let commit () =
  let read path = String.trim (In_channel.with_open_text path In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with
      | hash -> hash
      | exception Sys_error _ -> "unknown")
  | hash -> hash

(* MD5 over the library and benchmark sources: provenance that survives
   a checkout without git metadata. *)
let source_md5 () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        List.concat_map
          (fun name ->
            let path = Filename.concat dir name in
            if Sys.is_directory path then files path else [ path ])
          (Array.to_list names)
  in
  files "lib" @ files "perfbench"
  |> List.map (fun path -> path ^ " " ^ Digest.to_hex (Digest.file path))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let () =
  let a = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  let env =
    { H.scale = H.full; seed = a.seed; jobs = min 2 nproc; work_dir = a.work_dir }
  in
  (try Sys.mkdir a.work_dir 0o755 with Sys_error _ -> ());
  if a.write_refs then begin
    let rep = H.run_rep env a.workload ~trace:false in
    write_refs a rep.H.out.H.cells;
    Printf.printf "wrote %s (%d cells)\n" (refs_path a) (List.length rep.H.out.H.cells);
    exit 0
  end;
  let refs = read_refs a in
  let full = refs.ref_seed = a.seed || a.workload = H.Sweep in
  (* Set-up takes well under a millisecond, so before each repetition a
     run samples it many times on its own; setup_s is the median of all
     the samples and the repetitions' own set-ups. *)
  let setup_samples = ref [] in
  let t_start = H.now () in
  let rec loop i acc =
    setup_samples := List.init 64 (fun _ -> H.setup_sample env a.workload) @ !setup_samples;
    let rep = H.run_rep env a.workload ~trace:(a.trace && i mod 2 = 1) in
    Gc.full_major ();
    let acc = rep :: acc in
    let elapsed = H.now () -. t_start in
    let per_rep = elapsed /. float_of_int (i + 1) in
    let min_reps = if a.trace then 2 else 1 in
    if i + 1 < min_reps || elapsed +. per_rep <= a.seconds then loop (i + 1) acc
    else List.rev acc
  in
  let reps = loop 0 [] in
  let first = (List.hd reps).H.out.H.cells in
  let attempted = List.fold_left (fun n rep -> n + List.length rep.H.out.H.cells) 0 reps in
  let failed =
    List.fold_left
      (fun n rep ->
        n + failed_cells ~refs ~full ~first rep.H.out.H.cells + List.length rep.H.out.H.problems)
      0 reps
  in
  let failed = min attempted failed in
  List.iter
    (fun rep -> List.iter (fun p -> Printf.printf "problem: %s\n" p) rep.H.out.H.problems)
    reps;
  List.iter print_endline (List.hd reps).H.out.H.accuracy;
  if not full then
    Printf.printf
      "seed %d has no committed reference (made with seed %d): checked the \
       seed-independent golden digests and the invariants only\n"
      a.seed refs.ref_seed;
  let metric (n, v, unit) = (n, H.Json.(Obj [ ("value", Float v); ("unit", String unit) ])) in
  let setups = !setup_samples @ List.map (fun rep -> rep.H.setup_s) reps in
  let metrics =
    List.map metric (if a.trace then H.per_layer reps else H.end_to_end ~setups reps)
  in
  let digest = H.digest_of_cells first in
  let record =
    H.Json.(
      Obj
        [
          ("record", String "perfbench");
          ("workload", String (H.workload_name a.workload));
          ("seed", Int a.seed);
          ("reference", String (if full then "full" else "invariants-only"));
          ("digest", String digest);
          ("commit", String (commit ()));
          ("source_md5", String (source_md5 ()));
          ( "trials_per_cell",
            match a.workload with
            | H.Sweep -> Int 0
            | H.Coverage ->
                Obj
                  [
                    ("stored", Int env.H.scale.H.cov_trials);
                    ("rollback", Int env.H.scale.H.rb_trials);
                  ] );
          ("pool_size", Int env.H.jobs);
          ("nproc", Int nproc);
          ("ocaml", String Sys.ocaml_version);
          ("trace", Bool a.trace);
          ("reps", Int (List.length reps));
          ("traced_reps", Int (List.length (List.filter (fun rep -> rep.H.trace) reps)));
          ( "rep_wall_s",
            List (List.map (fun rep -> Float rep.H.out.H.wall_s) reps) );
          ("failed_fraction", Float (float_of_int failed /. float_of_int (max 1 attempted)));
        ])
  in
  print_endline (H.Json.to_string record);
  print_endline
    (H.Json.to_string
       (H.Json.Obj
          [
            ("correct", H.Json.Bool (failed = 0));
            ("attempted", H.Json.Int attempted);
            ("failed", H.Json.Int failed);
            ("metrics", H.Json.Obj metrics);
          ]))
