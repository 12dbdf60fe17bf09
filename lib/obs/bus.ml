type event = ..
type topic = int

let next_bit = ref 0

let topic () =
  if !next_bit >= Sys.int_size - 1 then invalid_arg "Bus.topic: out of bits";
  incr next_bit;
  1 lsl (!next_bit - 1)

type sub = { s_mask : int; f : event -> unit }

(* [subs] is replaced, never mutated, so a subscription made during a
   dispatch does not disturb it. *)
type t = { mutable mask : int; mutable subs : sub list }

let create () = { mask = 0; subs = [] }

let subscribe t topics f =
  let s_mask = List.fold_left ( lor ) 0 topics in
  t.mask <- t.mask lor s_mask;
  t.subs <- t.subs @ [ { s_mask; f } ]

let wants t topic = t.mask land topic <> 0
(* A top-level loop: no closure is allocated per event. *)
let rec dispatch topic ev = function
  | [] -> ()
  | s :: rest ->
    if s.s_mask land topic <> 0 then s.f ev;
    dispatch topic ev rest

let emit t topic ev = dispatch topic ev t.subs
