let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  check_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
  acc /. float_of_int (Array.length xs)

let std xs = sqrt (variance xs)

let min xs =
  check_nonempty "Stats.min" xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check_nonempty "Stats.max" xs;
  Array.fold_left Stdlib.max xs.(0) xs

let sorted_copy xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0,100]";
  let s = sorted_copy xs in
  let n = Array.length s in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then s.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1. -. w) *. s.(lo)) +. (w *. s.(hi))

let median xs = percentile xs 50.

(* rank = ceil(p/100 * n) on the ascending sample, 1-based; p = 0
   degenerates to the minimum. *)
let nearest_rank xs p =
  check_nonempty "Stats.nearest_rank" xs;
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg "Stats.nearest_rank: p outside [0,100]";
  let s = sorted_copy xs in
  let n = Array.length s in
  (* p/100*n is inexact in binary (99.9/100*1000 = 999.0000000000001);
     without the relative epsilon, ceil would bump exact ranks up one and
     report p999 as the maximum on a 1000-sample vector. *)
  let r = p /. 100. *. float_of_int n in
  let rank = int_of_float (Float.ceil (r -. (1e-9 *. Float.max 1. r))) in
  s.(Stdlib.max 0 (rank - 1))

let argmax xs =
  check_nonempty "Stats.argmax" xs;
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best

let argmin xs =
  check_nonempty "Stats.argmin" xs;
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) < xs.(!best) then best := i
  done;
  !best

let normalize xs =
  let total = sum xs in
  if total <= 0. then Array.map (fun _ -> 0.) xs
  else Array.map (fun x -> x /. total) xs

let entropy weights =
  check_nonempty "Stats.entropy" weights;
  let p = normalize weights in
  Array.fold_left (fun acc pi -> if pi > 0. then acc -. (pi *. log pi) else acc) 0. p

let mutual_information table =
  let rows = Array.length table in
  if rows = 0 then invalid_arg "Stats.mutual_information: empty table";
  let cols = Array.length table.(0) in
  let total = Array.fold_left (fun a row -> a +. sum row) 0. table in
  if total <= 0. then 0.
  else begin
    let row_sum = Array.map sum table in
    let col_sum = Array.make cols 0. in
    Array.iter (fun row -> Array.iteri (fun j v -> col_sum.(j) <- col_sum.(j) +. v) row) table;
    let mi = ref 0. in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        let pij = table.(i).(j) /. total in
        if pij > 0. then begin
          let pi = row_sum.(i) /. total and pj = col_sum.(j) /. total in
          mi := !mi +. (pij *. log (pij /. (pi *. pj)))
        end
      done
    done;
    !mi
  end

let pearson xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.pearson: length mismatch";
  check_nonempty "Stats.pearson" xs;
  let mx = mean xs and my = mean ys in
  let num = ref 0. and dx = ref 0. and dy = ref 0. in
  Array.iteri
    (fun i x ->
      let a = x -. mx and b = ys.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    xs;
  if !dx = 0. || !dy = 0. then 0. else !num /. sqrt (!dx *. !dy)
