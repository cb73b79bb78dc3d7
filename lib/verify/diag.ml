type rule =
  | Replica_overlap
  | Missing_replica
  | Missing_check
  | Missing_shadow_copy
  | Bundle_overflow
  | Unresolved_target
  | Delay_violation
  | Schedule_mismatch
  | Missing_vote
  | Partial_vote_rewrite
  | Missing_checkpoint
  | Misplaced_checkpoint
  | Shadow_collision
  | Decorrelation_violation

let rule_name = function
  | Replica_overlap -> "replica-overlap"
  | Missing_replica -> "missing-replica"
  | Missing_check -> "missing-check"
  | Missing_shadow_copy -> "missing-shadow-copy"
  | Bundle_overflow -> "bundle-overflow"
  | Unresolved_target -> "unresolved-target"
  | Delay_violation -> "delay-violation"
  | Schedule_mismatch -> "schedule-mismatch"
  | Missing_vote -> "missing-vote"
  | Partial_vote_rewrite -> "partial-vote-rewrite"
  | Missing_checkpoint -> "missing-checkpoint"
  | Misplaced_checkpoint -> "misplaced-checkpoint"
  | Shadow_collision -> "shadow-collision"
  | Decorrelation_violation -> "decorrelation-violation"

type t = {
  rule : rule;
  func : string;
  block : string;
  insn : int;
  cycle : int;
  message : string;
}

let make ?(block = "") ?(insn = -1) ?(cycle = -1) ~func rule message =
  { rule; func; block; insn; cycle; message }

let pp ppf d =
  Format.fprintf ppf "%s: %s" (rule_name d.rule) d.func;
  if d.block <> "" then Format.fprintf ppf ".%s" d.block;
  if d.insn >= 0 then Format.fprintf ppf " insn %d" d.insn;
  if d.cycle >= 0 then Format.fprintf ppf " cycle %d" d.cycle;
  Format.fprintf ppf ": %s" d.message

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  let module J = Casted_obs.Json in
  J.Obj
    ([
       ("rule", J.String (rule_name d.rule));
       ("func", J.String d.func);
     ]
    @ (if d.block = "" then [] else [ ("block", J.String d.block) ])
    @ (if d.insn < 0 then [] else [ ("insn", J.Int d.insn) ])
    @ (if d.cycle < 0 then [] else [ ("cycle", J.Int d.cycle) ])
    @ [ ("message", J.String d.message) ])

let list_to_json ds = Casted_obs.Json.List (List.map to_json ds)
