(* Order statistics with their sample counts.

   Percentiles use the nearest-rank rule: the p-th percentile of n sorted
   samples is the value at rank ceil(p/100 * n).  A percentile is only worth
   reporting when at least ten samples lie beyond it, so every reported
   percentile carries its sample count and the number of samples past it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~n p =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

let percentile xs p =
  let a = sorted xs in
  a.(rank ~n:(Array.length a) p - 1)

let median xs = percentile xs 50.0

(* Samples strictly past the rank of the p-th percentile. *)
let beyond ~n p = n - rank ~n p

let reportable ~n p = n > 0 && beyond ~n p >= 10

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Interquartile range as a share of the median — the spread the benchmark's
   bounds are judged against. *)
let rel_iqr xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (percentile xs 75.0 -. percentile xs 25.0) /. Float.abs m
