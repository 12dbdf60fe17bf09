(** A named integer counter: one mutable cell, bumped on hot paths, read at
    dump time by the {!Registry}. *)

type t

val make : string -> t
val name : t -> string
val get : t -> int
val incr : ?by:int -> t -> unit
val reset : t -> unit
val pp : Format.formatter -> t -> unit
