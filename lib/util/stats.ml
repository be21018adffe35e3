let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let s = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (s /. float_of_int (List.length xs))

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let a = Array.of_list sorted in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile xs q =
  if q < 0. || q > 100. then invalid_arg "Stats.percentile: q outside [0, 100]";
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty data"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. Float.floor rank in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let percent r = Printf.sprintf "%.1f%%" (100. *. r)

let log2 x = log x /. log 2.

let human_big x =
  if x < 1e6 then Printf.sprintf "%.0f" x
  else
    let e = int_of_float (floor (log10 x)) in
    Printf.sprintf "%.2fe%d" (x /. (10. ** float_of_int e)) e

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x
