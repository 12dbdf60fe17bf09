(* A named monotonic (but resettable) integer counter.  Counters are plain
   mutable cells so the hot paths that bump them (lock grants, page hits,
   reorganization units) pay one store; the registry holds a reference and
   reads the value only at dump time. *)

type t = { name : string; mutable value : int }

let make name = { name; value = 0 }
let name t = t.name
let get t = t.value
let incr ?(by = 1) t = t.value <- t.value + by
let reset t = t.value <- 0
let pp ppf t = Format.fprintf ppf "%s=%d" t.name t.value
