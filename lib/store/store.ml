(* On-disk content-addressed campaign-result store. See store.mli for
   the layout and extension semantics. *)

type key = {
  identity : string;
  seed : int;
  fuel_factor : int;
  retry_budget : int;
  trials : int;
  ci_halfwidth : float option;
}

let key ?(retry_budget = -1) ~identity ~seed ~fuel_factor ~trials () =
  if trials < 0 then invalid_arg "Store.key: trials must be non-negative";
  if String.contains identity '\n' || String.contains identity '|' then
    invalid_arg "Store.key: identity must not contain newlines or '|'";
  { identity; seed; fuel_factor; retry_budget; trials; ci_halfwidth = None }

let retry_budget_of_field b = if b < 0 then None else Some b

let valid_ci_halfwidth w = Float.is_finite w && w > 0.0

let early_stop ~ci_halfwidth k =
  if not (valid_ci_halfwidth ci_halfwidth) then
    invalid_arg "Store.early_stop: ci_halfwidth must be positive and finite";
  { k with ci_halfwidth = Some ci_halfwidth }

(* The shortest decimal rendering that reads back as the same float, so
   one target always hashes to one address. *)
let render_float w =
  let rec go p =
    let s = Printf.sprintf "%.*g" p w in
    if p >= 17 || Float.equal (float_of_string s) w then s else go (p + 1)
  in
  go 15

(* The canonical address. A full entry is addressed without its trial
   count so it can extend in place as more trials accumulate. An
   early-stop cell is pinned to its requested length and its stop
   target: both decide where the stop fires. Pinned by golden tests:
   changing this shape orphans every store on disk. *)
let address k =
  let base =
    Printf.sprintf "%s|seed=%d|fuel=%d|retry=%d" k.identity k.seed
      k.fuel_factor k.retry_budget
  in
  match k.ci_halfwidth with
  | None -> base
  | Some w -> Printf.sprintf "%s|trials=%d|ci=%s" base k.trials (render_float w)

let hash k = Digest.to_hex (Digest.string (address k))

type spec = {
  workload : string;
  size : string;
  scheme : string;
  issue : int;
  delay : int;
  model : string;
}

type entry = {
  key : key;
  trials_done : int;
  counts : int array;
  golden_cycles : int;
  golden_dyn : int;
  population : int;
  model : string;
  spec : spec option;
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
}

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let magic = "casted-store v1"
let entry_magic = "casted-store-entry v1"
let dir t = t.dir
let entries_dir t = Filename.concat t.dir "entries"
let manifest_path dir = Filename.concat dir "MANIFEST"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publish: write to a tmp file unique to this process, then
   rename. Readers never observe a half-written file; two processes
   racing on one path each rename a complete file and the last one
   wins (for store entries both wrote the same bit-identical tally). *)
let atomic_write ~path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try output_string oc content
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let mkdir_p path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let open_dir ?(create = false) dir =
  let manifest = manifest_path dir in
  let init () =
    {
      dir;
      mutex = Mutex.create ();
      hits = 0;
      misses = 0;
      writes = 0;
      bytes_read = 0;
      bytes_written = 0;
    }
  in
  if Sys.file_exists manifest then begin
    let content = String.trim (read_file manifest) in
    if String.equal content magic then Ok (init ())
    else
      Error
        (Printf.sprintf
           "%s: version sentinel is %S, expected %S — refusing a store \
            written by an unknown casted version"
           manifest content magic)
  end
  else if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else if Sys.file_exists dir && Array.length (Sys.readdir dir) > 0 then
    (* Never adopt somebody else's non-empty directory, even when asked
       to create: initialising a store inside it would mix our entries
       into foreign files. *)
    Error
      (Printf.sprintf
         "%s: directory exists but has no MANIFEST — not a casted result \
          store"
         dir)
  else if not create then
    (* A read-only open never initialises anything, not even an empty
       directory: without a MANIFEST there is no store. *)
    Error
      (Printf.sprintf
         "%s: no such store (a --store DIR campaign, repro or work creates \
          one)"
         dir)
  else begin
    mkdir_p dir;
    mkdir_p (Filename.concat dir "entries");
    mkdir_p (Filename.concat dir "queue");
    mkdir_p (Filename.concat dir "locks");
    atomic_write ~path:manifest (magic ^ "\n");
    Ok (init ())
  end

let open_exn ?create dir =
  match open_dir ?create dir with
  | Ok t -> t
  | Error msg -> invalid_arg ("Store.open_dir: " ^ msg)

let entry_path t k = Filename.concat (entries_dir t) (hash k ^ ".entry")

(* Key/value lines: order-independent parse, loud on anything missing or
   malformed. *)
let parse_fields lines =
  let table = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | Some i ->
          Hashtbl.replace table (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | None -> ())
    lines;
  table

let ( let* ) = Result.bind

let field ~path table name =
  match Hashtbl.find_opt table name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %s" path name)

let int_field ~path table name =
  let* v = field ~path table name in
  match int_of_string_opt v with
  | Some n -> Ok n
  | None ->
      Error (Printf.sprintf "%s: field %s is not an integer (%S)" path name v)

let render_entry e =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" entry_magic;
  line "identity=%s" e.key.identity;
  line "seed=%d" e.key.seed;
  line "fuel_factor=%d" e.key.fuel_factor;
  line "retry_budget=%d" e.key.retry_budget;
  line "trials=%d" e.key.trials;
  Option.iter (fun w -> line "ci=%s" (render_float w)) e.key.ci_halfwidth;
  line "trials_done=%d" e.trials_done;
  line "counts=%s"
    (String.concat "," (Array.to_list (Array.map string_of_int e.counts)));
  line "golden_cycles=%d" e.golden_cycles;
  line "golden_dyn=%d" e.golden_dyn;
  line "population=%d" e.population;
  line "model=%s" e.model;
  (match e.spec with
  | None -> ()
  | Some s ->
      line "workload=%s" s.workload;
      line "size=%s" s.size;
      line "scheme=%s" s.scheme;
      line "issue=%d" s.issue;
      line "delay=%d" s.delay);
  Buffer.contents b

let validate_entry e =
  let sum = Array.fold_left ( + ) 0 e.counts in
  if sum <> e.trials_done then
    Error
      (Printf.sprintf "counts sum to %d but trials_done is %d" sum
         e.trials_done)
  else if e.trials_done < 0 || e.trials_done > e.key.trials then
    Error
      (Printf.sprintf "trials_done %d outside [0, %d]" e.trials_done
         e.key.trials)
  else Ok ()

let parse_entry ~path content =
  match String.split_on_char '\n' content with
  | header :: fields when String.equal header entry_magic ->
      let table = parse_fields fields in
      let* identity = field ~path table "identity" in
      let* seed = int_field ~path table "seed" in
      let* fuel_factor = int_field ~path table "fuel_factor" in
      let* retry_budget = int_field ~path table "retry_budget" in
      (* Entries written before sharding was retired carry a shard line:
         [0/1] is a full or early-stop entry, anything else one shard's
         share of a cell, which nothing reads any more. *)
      let* () =
        match Hashtbl.find_opt table "shard" with
        | None | Some "0/1" -> Ok ()
        | Some v ->
            Error
              (Printf.sprintf
                 "%s: shard %S — sharded entries are no longer supported; \
                  the file can be deleted"
                 path v)
      in
      let* trials = int_field ~path table "trials" in
      let* ci_halfwidth =
        match Hashtbl.find_opt table "ci" with
        | None -> Ok None
        | Some v -> (
            match float_of_string_opt v with
            | Some w when valid_ci_halfwidth w -> Ok (Some w)
            | _ -> Error (Printf.sprintf "%s: malformed ci %S" path v))
      in
      let* trials_done = int_field ~path table "trials_done" in
      let* counts_s = field ~path table "counts" in
      let* counts =
        let parts = String.split_on_char ',' counts_s in
        let parsed = List.filter_map int_of_string_opt parts in
        if List.length parsed = List.length parts && parts <> [] then
          Ok (Array.of_list parsed)
        else Error (Printf.sprintf "%s: malformed counts %S" path counts_s)
      in
      let* golden_cycles = int_field ~path table "golden_cycles" in
      let* golden_dyn = int_field ~path table "golden_dyn" in
      let* population = int_field ~path table "population" in
      let* model = field ~path table "model" in
      let spec =
        match
          ( Hashtbl.find_opt table "workload",
            Hashtbl.find_opt table "size",
            Hashtbl.find_opt table "scheme",
            Option.bind (Hashtbl.find_opt table "issue") int_of_string_opt,
            Option.bind (Hashtbl.find_opt table "delay") int_of_string_opt )
        with
        | Some workload, Some size, Some scheme, Some issue, Some delay ->
            Some { workload; size; scheme; issue; delay; model }
        | _ -> None
      in
      let e =
        {
          key =
            { identity; seed; fuel_factor; retry_budget; trials; ci_halfwidth };
          trials_done;
          counts;
          golden_cycles;
          golden_dyn;
          population;
          model;
          spec;
        }
      in
      let* () =
        Result.map_error (fun msg -> path ^ ": " ^ msg) (validate_entry e)
      in
      (* The filename is the address: a mismatch means the file was
         corrupted, hand-edited or moved — refuse it loudly rather than
         serve a tally for the wrong cell. *)
      let expected = hash e.key ^ ".entry" in
      if not (String.equal (Filename.basename path) expected) then
        Error
          (Printf.sprintf
             "%s: content addresses %s (key %S) — entry is corrupt or \
              misplaced"
             path expected (address e.key))
      else Ok e
  | header :: _ ->
      Error
        (Printf.sprintf "%s: version sentinel is %S, expected %S" path
           (String.trim header) entry_magic)
  | [] -> Error (Printf.sprintf "%s: empty entry" path)

let tick t f =
  Mutex.lock t.mutex;
  f t;
  Mutex.unlock t.mutex

let find t k =
  let path = entry_path t k in
  if not (Sys.file_exists path) then begin
    tick t (fun t -> t.misses <- t.misses + 1);
    Casted_obs.Metrics.incr "store.misses";
    Ok None
  end
  else begin
    let content = read_file path in
    match parse_entry ~path content with
    | Error msg -> Error msg
    | Ok entry ->
        if not (String.equal (address entry.key) (address k)) then
          Error
            (Printf.sprintf
               "%s: entry belongs to %S, not %S — hash collision or corrupt \
                store"
               path (address entry.key) (address k))
        else begin
          tick t (fun t ->
              t.hits <- t.hits + 1;
              t.bytes_read <- t.bytes_read + String.length content);
          Casted_obs.Metrics.incr "store.hits";
          Casted_obs.Metrics.incr ~by:(String.length content)
            "store.bytes_read";
          Ok (Some entry)
        end
  end

let put t e =
  (match validate_entry e with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Store.put: " ^ msg));
  let content = render_entry e in
  atomic_write ~path:(entry_path t e.key) content;
  tick t (fun t ->
      t.writes <- t.writes + 1;
      t.bytes_written <- t.bytes_written + String.length content);
  Casted_obs.Metrics.incr "store.writes";
  Casted_obs.Metrics.incr ~by:(String.length content) "store.bytes_written"

let list t =
  let dir = entries_dir t in
  if not (Sys.file_exists dir) then
    Error (Printf.sprintf "%s: no entries directory" t.dir)
  else begin
    let names =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun n -> Filename.check_suffix n ".entry")
      |> List.sort String.compare
    in
    Ok
      (List.map
         (fun name ->
           let path = Filename.concat dir name in
           parse_entry ~path (read_file path))
         names)
  end

let gc_tmp ?(age_s = 60.0) t =
  let now = Unix.gettimeofday () in
  let removed = ref 0 in
  let sweep dir =
    if Sys.file_exists dir then
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          let is_tmp =
            (* foo.tmp.<pid> — the unique suffix atomic_write uses. *)
            match String.index_opt name '.' with
            | None -> false
            | Some _ ->
                List.exists
                  (fun part -> String.equal part "tmp")
                  (String.split_on_char '.' name)
          in
          if is_tmp then
            match Unix.stat path with
            | { Unix.st_mtime; _ } when now -. st_mtime > age_s ->
                (try Sys.remove path with Sys_error _ -> ());
                incr removed
            | _ -> ()
            | exception Unix.Unix_error _ -> ())
        (Sys.readdir dir)
  in
  sweep (entries_dir t);
  sweep (Filename.concat t.dir "queue");
  sweep (Filename.concat t.dir "locks");
  sweep t.dir;
  !removed

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      writes = t.writes;
      bytes_read = t.bytes_read;
      bytes_written = t.bytes_written;
    }
  in
  Mutex.unlock t.mutex;
  s
