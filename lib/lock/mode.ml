type t = IS | IX | S | X | R | RX | RS

let all = [ IS; IX; S; X; R; RX; RS ]

(* Dense index for per-mode count arrays (the lock manager's per-mode
   tallies). *)
let index = function IS -> 0 | IX -> 1 | S -> 2 | X -> 3 | R -> 4 | RX -> 5 | RS -> 6
let arity = 7

(* Symmetric compatibility.  RX conflicts with everything; X conflicts with
   everything; RS conflicts with R (and X), which is what makes the
   instant-duration RS request block until the reorganizer is done with the
   base page. *)
let compat_spec a b =
  match (a, b) with
  | RX, _ | _, RX -> false
  | X, _ | _, X -> false
  | RS, R | R, RS -> false
  | RS, RS -> false (* two blocked parties; conservative, never consulted *)
  | RS, _ | _, RS -> true
  | R, (S | IS | R) | (S | IS), R -> true
  | R, IX | IX, R -> false
  | S, (S | IS) | IS, S -> true
  | S, IX | IX, S -> false
  | IS, (IS | IX) | IX, IS -> true
  | IX, IX -> true

(* Test-only mutation hook: forcing one cell of the compatibility matrix to
   [true] lets the model-conformance self-test prove the checker is live (a
   silently-dead checker would accept the broken grant).  Never set outside
   tests; [compat] consults it on every call but the common case is one load
   and one comparison. *)
let test_break_compat : (t * t) option ref = ref None

let compat a b =
  match !test_break_compat with
  | Some (x, y) when (a = x && b = y) || (a = y && b = x) -> true
  | _ -> compat_spec a b

let covers ~held ~need =
  match (held, need) with
  | a, b when a = b -> true
  | X, _ -> true
  | S, IS -> true
  | IX, IS -> true
  | _ -> false

let is_upgrade ~from_ ~to_ =
  (not (covers ~held:from_ ~need:to_))
  &&
  match (from_, to_) with
  | IS, (IX | S | X) -> true
  | IX, X -> true
  | S, X -> true
  | R, X -> true
  | _ -> false

(* The literal Table 1 of the paper.  Blank cells are mode pairs that never
   contend for the same resource (e.g. IX is only used on the tree lock and
   leaf pages, R only on base pages).  RS is requested but never granted. *)
let paper_cell ~granted ~requested =
  match (granted, requested) with
  | IS, IS | IS, IX | IS, S -> `Yes
  | IS, X -> `No
  | IS, (R | RX | RS) -> `Blank
  | IX, IS | IX, IX -> `Yes
  | IX, (S | X) -> `No
  | IX, (R | RX | RS) -> `Blank
  | S, IS -> `Yes
  | S, IX -> `No
  | S, S -> `Yes
  | S, X -> `No
  | S, R -> `Yes
  | S, RX -> `Blank
  | S, RS -> `Yes
  | X, (IS | IX | S | X | R | RS) -> `No
  | X, RX -> `Blank
  | R, S -> `Yes
  | R, (X | RS) -> `No
  | R, R -> `Yes
  | R, (IS | IX | RX) -> `Blank
  | RX, (IS | IX | S | X) -> `No
  | RX, (R | RX | RS) -> `Blank
  | RS, _ -> `Blank

let to_string = function
  | IS -> "IS"
  | IX -> "IX"
  | S -> "S"
  | X -> "X"
  | R -> "R"
  | RX -> "RX"
  | RS -> "RS"

let pp ppf t = Format.pp_print_string ppf (to_string t)
