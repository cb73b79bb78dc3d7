let size = 64

let owns ~shard:(k, n) lo = lo / size mod n = k
let chunk_end ~trials lo = min trials ((lo / size + 1) * size)

let chunks ~shard ~trials =
  let rec go lo acc =
    if lo >= trials then List.rev acc
    else
      let hi = chunk_end ~trials lo in
      go hi (if owns ~shard lo then (lo, hi) :: acc else acc)
  in
  go 0 []

let share ~shard ~trials =
  List.fold_left
    (fun acc (lo, hi) -> acc + (hi - lo))
    0 (chunks ~shard ~trials)

let resume_index ~shard ~trials banked =
  let rec go acc = function
    | [] -> None
    | (lo, hi) :: rest ->
        let acc = acc + (hi - lo) in
        if acc = banked then Some hi
        else if acc > banked then None
        else go acc rest
  in
  if banked = 0 then Some 0 else go 0 (chunks ~shard ~trials)
