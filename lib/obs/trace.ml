type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  track : int;
  args : (string * Json.t) list;
}

(* Per-domain track: only the owning domain appends, so no lock is
   needed on the hot path. *)
type track = {
  id : int;
  mutable label : string;
  mutable events : event list;  (* newest first *)
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let registry : track list ref = ref []
let registry_mutex = Mutex.create ()
let next_track = Atomic.make 0

let track_key : track Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let id = Atomic.fetch_and_add next_track 1 in
      let t = { id; label = Printf.sprintf "track-%d" id; events = [] } in
      Mutex.lock registry_mutex;
      registry := t :: !registry;
      Mutex.unlock registry_mutex;
      t)

let name_track label = (Domain.DLS.get track_key).label <- label

let add_complete ?(cat = "casted") ?(args = []) ~ts_us ~dur_us name =
  if dur_us < 0.0 then
    invalid_arg
      (Printf.sprintf "Trace.add_complete: negative duration %g for %s" dur_us
         name);
  if enabled () then begin
    let t = Domain.DLS.get track_key in
    t.events <-
      { name; cat; ts_us; dur_us; track = t.id; args } :: t.events
  end

let with_span ?cat ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_us () in
        add_complete ?cat ?args ~ts_us:t0 ~dur_us:(t1 -. t0) name)
      f
  end

let tracks () =
  Mutex.lock registry_mutex;
  let ts = !registry in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> Int.compare a.id b.id) ts

let events () =
  tracks ()
  |> List.concat_map (fun t -> t.events)
  |> List.stable_sort (fun a b ->
         (* Equal start times (the clock ticks in whole microseconds):
            the longer span encloses the shorter, so it sorts first.
            Equal durations too: a track lists its spans latest-finished
            first, and an enclosing span finishes after what it
            encloses. *)
         match Float.compare a.ts_us b.ts_us with
         | 0 -> (
             match Float.compare b.dur_us a.dur_us with
             | 0 -> Int.compare a.track b.track
             | c -> c)
         | c -> c)

let to_chrome () =
  let meta =
    List.map
      (fun t ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int t.id);
            ("args", Json.Obj [ ("name", Json.String t.label) ]);
          ])
      (tracks ())
  in
  let complete =
    List.map
      (fun e ->
        Json.Obj
          [
            ("name", Json.String e.name);
            ("cat", Json.String e.cat);
            ("ph", Json.String "X");
            ("pid", Json.Int 0);
            ("tid", Json.Int e.track);
            ("ts", Json.Float e.ts_us);
            ("dur", Json.Float e.dur_us);
            ("args", Json.Obj e.args);
          ])
      (events ())
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (meta @ complete));
    ]

let clear () =
  Mutex.lock registry_mutex;
  List.iter (fun t -> t.events <- []) !registry;
  Mutex.unlock registry_mutex
