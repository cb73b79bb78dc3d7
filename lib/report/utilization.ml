module Insn = Casted_ir.Insn
module Schedule = Casted_sched.Schedule
module Config = Casted_machine.Config
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache

type t = {
  insns_per_cluster : int array;
  detection_remote : int;
  detection_total : int;
  original_remote : int;
  original_total : int;
}

let analyze (sched : Schedule.t) =
  let clusters = sched.Schedule.config.Config.clusters in
  let per_cluster = Array.make clusters 0 in
  let detection_remote = ref 0 in
  let detection_total = ref 0 in
  let original_remote = ref 0 in
  let original_total = ref 0 in
  List.iter
    (fun (_, fs) ->
      Array.iter
        (fun bs ->
          Array.iter
            (fun bundle ->
              Array.iteri
                (fun cluster insns ->
                  Array.iter
                    (fun (insn : Insn.t) ->
                      per_cluster.(cluster) <- per_cluster.(cluster) + 1;
                      match insn.Insn.role with
                      | Insn.Original ->
                          incr original_total;
                          if cluster <> 0 then incr original_remote
                      | Insn.Replica | Insn.Check | Insn.Shadow_copy ->
                          incr detection_total;
                          if cluster <> 0 then incr detection_remote)
                    insns)
                bundle)
            bs.Schedule.bundles)
        fs.Schedule.blocks)
    sched.Schedule.funcs;
  {
    insns_per_cluster = per_cluster;
    detection_remote = !detection_remote;
    detection_total = !detection_total;
    original_remote = !original_remote;
    original_total = !original_total;
  }

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let detection_remote_fraction t = frac t.detection_remote t.detection_total
let original_remote_fraction t = frac t.original_remote t.original_total
let occupancy_of_run = Casted_sim.Outcome.occupancy

let placement_table ~engine ~benchmark =
  let delays = [ 1; 2; 3; 4 ] in
  let row scheme =
    Scheme.name scheme
    :: List.map
         (fun delay ->
           let c =
             Engine.compile engine
               (Cache.key ~workload:benchmark
                  ~size:Casted_workloads.Workload.Fault ~scheme ~issue_width:2
                  ~delay ())
           in
           let u = analyze c.Pipeline.schedule in
           Printf.sprintf "%.0f%% / %.0f%%"
             (100.0 *. detection_remote_fraction u)
             (100.0 *. original_remote_fraction u))
         delays
  in
  let headers =
    "scheme"
    :: List.map (fun d -> Printf.sprintf "delay %d" d) delays
  in
  Printf.sprintf
    "%s, issue 2: detection / original code placed on the remote cluster\n%s"
    benchmark
    (Table.render ~headers [ row Scheme.Dced; row Scheme.Casted ])
