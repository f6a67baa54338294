let paired ~nominal ~raw ~k_before ~k_after =
  raw *. nominal /. ((k_before +. k_after) /. 2.)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> invalid_arg "Pair.median"
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles, method="exclusive": the j-th cut point
   sits at position j * (n + 1) / 4 (1-based), interpolated linearly and
   clamped to the data's ends. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then invalid_arg "Pair.quartiles";
  let cut j =
    let m = j * (n + 1) in
    let k = max 1 (min (n - 1) (m / 4)) in
    let frac = float_of_int (m - (k * 4)) /. 4. in
    a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
  in
  (cut 1, cut 3)

let spread xs =
  if List.length xs < 2 then 0.
  else
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. median xs

let geomean xs =
  exp (List.fold_left (fun s x -> s +. log x) 0. xs /. float_of_int (List.length xs))
