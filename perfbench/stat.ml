(* The summaries the benchmark reports. *)

(* The tail rule: a percentile is reported only when at least [min_tail]
   samples rank above it, so a p99 needs 1,000 samples and a p50 needs 20.
   Nearest rank, as [Util.Stats.percentile] computes it: the p-th percentile
   of n samples is the ceil(p*n/100)-th smallest. *)
let min_tail = 10
let rank n p = int_of_float (Float.ceil (p *. float_of_int n /. 100.0))

(* [percentile xs p] under the tail rule. *)
let percentile xs p =
  if Array.length xs - rank (Array.length xs) p < min_tail then None
  else Some (Util.Stats.percentile xs p)

(* The fewest samples for which [percentile] reports [p]. *)
let needed p =
  let rec go n = if n - rank n p >= min_tail then n else go (n + 1) in
  go 1

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so [compare] agrees with
   spreads computed in Python.  One sample is its own quartiles. *)
let quartiles xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.quartiles: no samples";
  let a = sorted xs in
  if n = 1 then (a.(0), a.(0))
  else
    let cut i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)
