(** Log sequence numbers.

    LSNs are dense positive integers assigned by the log manager; [nil] (= 0)
    means "no log record" and is what freshly formatted pages carry. *)

type t = int

val nil : t
val to_int64 : t -> int64
val of_int64 : int64 -> t
val pp : Format.formatter -> t -> unit
