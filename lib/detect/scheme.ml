module Config = Casted_machine.Config
module Assign = Casted_sched.Assign
module Bug = Casted_sched.Bug

type t = Noed | Sced | Dced | Casted | Dme | Tmr | Rollback

let all = [ Noed; Sced; Dced; Casted; Dme; Tmr; Rollback ]

let name = function
  | Noed -> "NOED"
  | Sced -> "SCED"
  | Dced -> "DCED"
  | Casted -> "CASTED"
  | Dme -> "DME"
  | Tmr -> "TMR"
  | Rollback -> "ROLLBACK"

let of_string s =
  match String.uppercase_ascii s with
  | "NOED" -> Some Noed
  | "SCED" -> Some Sced
  | "DCED" -> Some Dced
  | "CASTED" -> Some Casted
  | "DME" -> Some Dme
  | "TMR" -> Some Tmr
  | "ROLLBACK" -> Some Rollback
  | _ -> None

let hardened = function
  | Noed -> false
  | Sced | Dced | Casted | Dme | Tmr | Rollback -> true

let recovers = function
  | Tmr | Rollback -> true
  | Noed | Sced | Dced | Casted | Dme -> false

let single_cluster = function
  | Noed | Sced -> true
  | Dced | Casted | Dme | Tmr | Rollback -> false

let machine t ~issue_width ~delay =
  if single_cluster t then Config.single_core ~issue_width
  else Config.dual_core ~issue_width ~delay

let strategy t =
  if single_cluster t then Assign.Single_cluster
  else if t = Dced then Assign.Dual_fixed
  else Assign.Adaptive Bug.default_options
