module Insn = Casted_ir.Insn
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Config = Casted_machine.Config
module Latency = Casted_machine.Latency

let schedule_block (config : Config.t) (dfg : Dfg.t) ~assignment ~label =
  let n = Dfg.num_nodes dfg in
  if Array.length assignment <> n then
    invalid_arg "schedule_block: assignment size mismatch";
  Array.iter
    (fun c ->
      if c < 0 || c >= config.Config.clusters then
        invalid_arg "schedule_block: cluster out of range")
    assignment;
  let heights = Dfg.heights dfg in
  let indeg = Array.make n 0 in
  Array.iteri (fun i preds -> indeg.(i) <- List.length preds) dfg.Dfg.preds;
  let earliest = Array.make n 0 in
  let issue = Array.make n (-1) in
  let remaining = ref n in
  let cycle = ref 0 in
  (* Candidates: per cluster, the unissued nodes whose predecessors have
     all issued, in no particular order (the pick rule is a total
     order). A pick scans its own cluster's candidates only, not the
     whole block. *)
  let clusters = config.Config.clusters in
  let cands =
    Array.init clusters (fun c ->
        Array.make
          (Array.fold_left (fun k a -> if a = c then k + 1 else k) 0 assignment)
          0)
  in
  let n_cands = Array.make clusters 0 in
  let add i =
    let c = assignment.(i) in
    cands.(c).(n_cands.(c)) <- i;
    n_cands.(c) <- n_cands.(c) + 1
  in
  Array.iteri (fun i d -> if d = 0 then add i) indeg;
  (* The ready candidate of [cluster] with the greatest height, lowest
     index on ties, removed from the candidates; -1 if none is ready. *)
  let pick_best cluster =
    let l = cands.(cluster) in
    let best = ref (-1) and at = ref (-1) in
    for k = 0 to n_cands.(cluster) - 1 do
      let i = l.(k) in
      if
        earliest.(i) <= !cycle
        && (!best < 0
           || heights.(i) > heights.(!best)
           || (heights.(i) = heights.(!best) && i < !best))
      then begin
        best := i;
        at := k
      end
    done;
    if !at >= 0 then begin
      let last = n_cands.(cluster) - 1 in
      l.(!at) <- l.(last);
      n_cands.(cluster) <- last
    end;
    !best
  in
  while !remaining > 0 do
    let before = !remaining in
    for cluster = 0 to clusters - 1 do
      let slots = ref config.Config.issue_width in
      let stop = ref false in
      while (not !stop) && !slots > 0 do
        let i = pick_best cluster in
        if i < 0 then stop := true
        else begin
          issue.(i) <- !cycle;
          decr slots;
          decr remaining;
          List.iter
            (fun (e : Dfg.edge) ->
              let cross =
                if
                  Dfg.kind_pays_delay e.Dfg.kind
                  && assignment.(e.Dfg.src) <> assignment.(e.Dfg.dst)
                then config.Config.delay
                else 0
              in
              earliest.(e.Dfg.dst) <-
                max earliest.(e.Dfg.dst) (!cycle + e.Dfg.latency + cross);
              indeg.(e.Dfg.dst) <- indeg.(e.Dfg.dst) - 1;
              if indeg.(e.Dfg.dst) = 0 then add e.Dfg.dst)
            dfg.Dfg.succs.(i)
        end
      done
    done;
    (* A cycle that issued nothing changed nothing: every later cycle
       issues nothing either until the first candidate is ready, so
       skip to it. *)
    if !remaining = before then begin
      let next = ref max_int in
      Array.iteri
        (fun c l ->
          for k = 0 to n_cands.(c) - 1 do
            next := min !next earliest.(l.(k))
          done)
        cands;
      if !next = max_int then
        invalid_arg "schedule_block: dependence cycle, no node can issue";
      cycle := max (!cycle + 1) !next
    end
    else incr cycle
  done;
  let length = 1 + Array.fold_left max 0 issue in
  let bundles =
    Array.init length (fun _ ->
        Array.init config.Config.clusters (fun _ -> [||]))
  in
  (* Fill bundles in program order so intra-bundle order is stable. *)
  let tmp : Insn.t list array array =
    Array.init length (fun _ -> Array.make config.Config.clusters [])
  in
  for i = n - 1 downto 0 do
    let c = assignment.(i) in
    tmp.(issue.(i)).(c) <- dfg.Dfg.insns.(i) :: tmp.(issue.(i)).(c)
  done;
  Array.iteri
    (fun cy row ->
      Array.iteri
        (fun cl insns -> bundles.(cy).(cl) <- Array.of_list insns)
        row)
    tmp;
  let issue_of = Hashtbl.create n in
  Array.iteri
    (fun i (insn : Insn.t) ->
      Hashtbl.replace issue_of insn.Insn.id (issue.(i), assignment.(i)))
    dfg.Dfg.insns;
  { Schedule.label; bundles; issue_of }

let schedule_func config strategy func =
  Casted_obs.Trace.with_span ~cat:"sched" "sched.func"
    ~args:
      [
        ("func", Casted_obs.Json.String func.Func.name);
        ("blocks", Casted_obs.Json.Int (List.length func.Func.blocks));
      ]
    (fun () ->
      let latency insn = Latency.of_op config.Config.latencies insn.Insn.op in
      let blocks =
        List.map
          (fun block ->
            let dfg = Dfg.build ~latency block in
            let assignment = Assign.compute strategy config dfg in
            Casted_obs.Metrics.incr "sched.blocks";
            schedule_block config dfg ~assignment
              ~label:block.Casted_ir.Block.label)
          func.Func.blocks
      in
      { Schedule.func; blocks = Array.of_list blocks })

let schedule_program config strategy program =
  let funcs =
    List.map
      (fun f -> (f.Func.name, schedule_func config strategy f))
      program.Program.funcs
  in
  { Schedule.program; config; funcs }
