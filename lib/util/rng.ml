(* Splitmix64: tiny, fast, passes BigCrush when used as a 64-bit stream.
   Chosen because it is trivially seedable and splittable, which keeps all
   experiments reproducible. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = bits64 t }

(* Non-negative 62-bit int from the high bits. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  positive_int t mod n

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, scaled to [0,1). *)
  u /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = float t 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

(* Zipf via the Gray et al. ("Quickly generating billion-record synthetic
   databases") approximation.  We cache the normalization constants per (n,
   theta) pair since experiments draw many samples from one distribution. *)
let zipf_cache : (int * float, float * float * float) Hashtbl.t = Hashtbl.create 7

let zipf_constants n theta =
  match Hashtbl.find_opt zipf_cache (n, theta) with
  | Some c -> c
  | None ->
    let zetan = ref 0.0 in
    for i = 1 to n do
      zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    let zeta2 = 1.0 +. (1.0 /. Float.pow 2.0 theta) in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. !zetan))
    in
    let c = (alpha, eta, !zetan) in
    Hashtbl.replace zipf_cache (n, theta) c;
    c

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta <= 0.0 || theta >= 1.0 then
    (* theta = 0 would be uniform; handle explicitly to avoid division by 0. *)
    int t n
  else begin
    let alpha, eta, zetan = zipf_constants n theta in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let v =
        float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
      in
      let k = int_of_float v in
      if k >= n then n - 1 else if k < 0 then 0 else k
  end
