type size = Perf | Fault

type t = {
  name : string;
  suite : string;
  description : string;
  build : size -> Casted_ir.Program.t;
}

let size_name = function Perf -> "perf" | Fault -> "fault"

let size_of_name = function
  | "perf" -> Some Perf
  | "fault" -> Some Fault
  | _ -> None
