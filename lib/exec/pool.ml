type t = {
  n_jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains tasks or on close *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  mutable tasks_submitted : int;
  mutable tasks_done : int;
  mutable busy_s : float;
  created_at : float;
}

let now () = Unix.gettimeofday ()

(* Pop one task while holding [t.mutex]. *)
let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.mutex
  done;
  if Queue.is_empty t.queue then (* closed and drained *)
    Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker t
  end

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      work = Condition.create ();
      closed = false;
      domains = [];
      tasks_submitted = 0;
      tasks_done = 0;
      busy_s = 0.0;
      created_at = now ();
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Casted_obs.Trace.name_track (Printf.sprintf "pool-worker-%d" (i + 1));
            worker t));
  t

let jobs t = t.n_jobs

(* A batch shares the pool mutex; [finished] is signalled when the last
   task of the batch completes (possibly on a worker domain). Each slot
   captures its task's result or exception, so one failing task never
   prevents the rest of the batch from completing. *)
type 'b batch = {
  pool : t;
  results : ('b, exn * Printexc.raw_backtrace) result option array;
  mutable remaining : int;
  finished : Condition.t;
}

(* Every task of every batch goes through the queue, at any pool size:
   with [jobs = 1] nothing drains it until {!await}, which then runs the
   batch inline in the caller, in submission order. *)
let submit t f arr =
  let n = Array.length arr in
  let batch =
    {
      pool = t;
      results = Array.make n None;
      remaining = n;
      finished = Condition.create ();
    }
  in
  let task i () =
    let t0 = now () in
    let r =
      try
        Ok (Casted_obs.Trace.with_span ~cat:"pool" "pool.task" (fun () -> f arr.(i)))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let dt = now () -. t0 in
    Mutex.lock t.mutex;
    batch.results.(i) <- Some r;
    t.tasks_done <- t.tasks_done + 1;
    t.busy_s <- t.busy_s +. dt;
    batch.remaining <- batch.remaining - 1;
    if batch.remaining = 0 then Condition.broadcast batch.finished;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end;
  t.tasks_submitted <- t.tasks_submitted + n;
  for i = 0 to n - 1 do
    Queue.add (task i) t.queue;
    Casted_obs.Metrics.gauge "pool.queue_depth"
      (float_of_int (Queue.length t.queue))
  done;
  if n > 0 then begin
    Casted_obs.Metrics.incr ~by:n "pool.tasks_submitted";
    Condition.broadcast t.work
  end;
  Mutex.unlock t.mutex;
  batch

(* The caller is an executor too: help drain the queue (any batch),
   then wait for this batch's in-flight tasks. *)
let collect batch =
  let t = batch.pool in
  Mutex.lock t.mutex;
  let rec help () =
    if batch.remaining > 0 then
      if not (Queue.is_empty t.queue) then begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        help ()
      end
      else begin
        Condition.wait batch.finished t.mutex;
        help ()
      end
  in
  help ();
  Mutex.unlock t.mutex;
  Array.mapi
    (fun i -> function
      | Some r -> r
      | None ->
          (* The batch counter hit zero, so every task ran; an empty
             slot means a worker lost its result. Name the slot so the
             failure is attributable. *)
          failwith
            (Printf.sprintf
               "Pool.await: batch of %d finished but slot %d has no result \
                (worker dropped it?)"
               (Array.length batch.results) i))
    batch.results

let await batch =
  Array.map
    (function
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (collect batch)

let map t f arr = await (submit t f arr)

let shutdown t =
  Mutex.lock t.mutex;
  let ds = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join ds

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type stats = {
  jobs : int;
  domains : int;
  tasks : int;
  pending : int;
  busy_s : float;
  wall_s : float;
}

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      jobs = t.n_jobs;
      domains = t.n_jobs - 1;
      tasks = t.tasks_done;
      pending = t.tasks_submitted - t.tasks_done;
      busy_s = t.busy_s;
      wall_s = now () -. t.created_at;
    }
  in
  Mutex.unlock t.mutex;
  s

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "jobs must be >= 1 (got %d)" n)
  | None -> Error (Printf.sprintf "jobs must be an integer (got %S)" s)

let default_jobs () =
  match Sys.getenv_opt "CASTED_JOBS" with
  | None -> Ok (Domain.recommended_domain_count ())
  | Some s -> (
      match parse_jobs s with
      | Ok n -> Ok n
      | Error msg -> Error ("CASTED_JOBS: " ^ msg))
