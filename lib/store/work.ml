(* Work units and lock-file claiming for cooperative matrix fills. *)

type unit_spec = {
  workload : string;
  size : string;
  scheme : string;
  issue : int;
  delay : int;
  model : string;
  seed : int;
  trials : int;
  fuel_factor : int;
  retry_budget : int;
}

let unit_magic = "casted-work-unit v1"

let address u =
  Printf.sprintf "%s/%s/%s/i%d/d%d/%s|seed=%d|trials=%d|fuel=%d|retry=%d"
    u.workload u.size u.scheme u.issue u.delay u.model u.seed u.trials
    u.fuel_factor u.retry_budget

let hash u = Digest.to_hex (Digest.string (address u))

let spec u =
  {
    Store.workload = u.workload;
    size = u.size;
    scheme = u.scheme;
    issue = u.issue;
    delay = u.delay;
    model = u.model;
  }

let queue_dir store = Filename.concat (Store.dir store) "queue"
let locks_dir store = Filename.concat (Store.dir store) "locks"
let unit_path store u = Filename.concat (queue_dir store) (hash u ^ ".unit")
let lock_path store u = Filename.concat (locks_dir store) (hash u ^ ".lock")

let validate u =
  List.iter
    (fun (name, v) ->
      if v = "" || String.contains v '\n' || String.contains v '|' then
        invalid_arg
          (Printf.sprintf "Work.enqueue: field %s is empty or malformed (%S)"
             name v))
    [
      ("workload", u.workload);
      ("size", u.size);
      ("scheme", u.scheme);
      ("model", u.model);
    ];
  if u.trials < 1 then invalid_arg "Work.enqueue: trials must be positive"

let render u =
  String.concat "\n"
    [
      unit_magic;
      "workload=" ^ u.workload;
      "size=" ^ u.size;
      "scheme=" ^ u.scheme;
      Printf.sprintf "issue=%d" u.issue;
      Printf.sprintf "delay=%d" u.delay;
      "model=" ^ u.model;
      Printf.sprintf "seed=%d" u.seed;
      Printf.sprintf "trials=%d" u.trials;
      Printf.sprintf "fuel_factor=%d" u.fuel_factor;
      Printf.sprintf "retry_budget=%d" u.retry_budget;
      "";
    ]

let ( let* ) = Result.bind

let parse ~path content =
  match String.split_on_char '\n' content with
  | header :: fields when String.equal header unit_magic ->
      let table = Hashtbl.create 16 in
      List.iter
        (fun line ->
          match String.index_opt line '=' with
          | Some i ->
              Hashtbl.replace table (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ())
        fields;
      let str name =
        match Hashtbl.find_opt table name with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "%s: missing field %s" path name)
      in
      let int name =
        let* v = str name in
        match int_of_string_opt v with
        | Some n -> Ok n
        | None ->
            Error
              (Printf.sprintf "%s: field %s is not an integer (%S)" path name
                 v)
      in
      let* workload = str "workload" in
      let* size = str "size" in
      let* scheme = str "scheme" in
      let* issue = int "issue" in
      let* delay = int "delay" in
      let* model = str "model" in
      let* seed = int "seed" in
      let* trials = int "trials" in
      let* fuel_factor = int "fuel_factor" in
      let* () =
        if fuel_factor >= 1 then Ok ()
        else
          Error
            (Printf.sprintf "%s: field fuel_factor must be at least 1, got %d"
               path fuel_factor)
      in
      let* retry_budget = int "retry_budget" in
      let u =
        {
          workload;
          size;
          scheme;
          issue;
          delay;
          model;
          seed;
          trials;
          fuel_factor;
          retry_budget;
        }
      in
      let expected = hash u ^ ".unit" in
      if not (String.equal (Filename.basename path) expected) then
        Error
          (Printf.sprintf
             "%s: content addresses %s (unit %S) — file is corrupt or \
              misplaced"
             path expected (address u))
      else Ok u
  | header :: _ ->
      Error
        (Printf.sprintf "%s: version sentinel is %S, expected %S" path
           (String.trim header) unit_magic)
  | [] -> Error (Printf.sprintf "%s: empty unit" path)

let enqueue store u =
  validate u;
  let path = unit_path store u in
  if Sys.file_exists path then false
  else begin
    Store.atomic_write ~path (render u);
    Casted_obs.Metrics.incr "store.units_enqueued";
    true
  end

let units store =
  let dir = queue_dir store in
  if not (Sys.file_exists dir) then
    Error (Printf.sprintf "%s: no queue directory" (Store.dir store))
  else
    Ok
      (Sys.readdir dir |> Array.to_list
      |> List.filter (fun n -> Filename.check_suffix n ".unit")
      |> List.sort String.compare
      |> List.map (fun name ->
             let path = Filename.concat dir name in
             let ic = open_in_bin path in
             let content =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic))
             in
             parse ~path content))

type claim = Claimed | Busy of string

let owner_string () =
  Printf.sprintf "%d@%s" (Unix.getpid ()) (Unix.gethostname ())

let read_owner path =
  try
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    line
  with Sys_error _ -> ""

(* A lock owner "pid@host" is stale when the host is ours and the pid
   is dead — [kill pid 0] raising ESRCH. Locks from other hosts are
   never broken automatically (we cannot probe their processes). *)
let lock_is_stale owner =
  match String.index_opt owner '@' with
  | None -> owner = "" (* unreadable/empty lock: treat as debris *)
  | Some i -> (
      let pid = String.sub owner 0 i in
      let host = String.sub owner (i + 1) (String.length owner - i - 1) in
      String.equal host (Unix.gethostname ())
      &&
      match int_of_string_opt pid with
      | None -> true
      | Some pid -> (
          match Unix.kill pid 0 with
          | () -> false
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
          | exception Unix.Unix_error (Unix.EPERM, _, _) -> false
          | exception Unix.Unix_error _ -> false))

let try_take path =
  match Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
  with
  | fd ->
      let content = owner_string () ^ "\n" in
      let _ = Unix.write_substring fd content 0 (String.length content) in
      Unix.close fd;
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false

let claim store u =
  let path = lock_path store u in
  if try_take path then Claimed
  else begin
    let owner = read_owner path in
    if lock_is_stale owner then begin
      (try Sys.remove path with Sys_error _ -> ());
      if try_take path then Claimed else Busy (read_owner path)
    end
    else Busy owner
  end

let release store u =
  try Sys.remove (lock_path store u) with Sys_error _ -> ()

let gc_locks ?(force = false) store =
  let dir = locks_dir store in
  let removed = ref 0 in
  if Sys.file_exists dir then
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".lock" then begin
          let path = Filename.concat dir name in
          if force || lock_is_stale (read_owner path) then begin
            (try Sys.remove path with Sys_error _ -> ());
            incr removed
          end
        end)
      (Sys.readdir dir);
  !removed
