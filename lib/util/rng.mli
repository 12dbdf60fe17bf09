(** Deterministic pseudo-random number generator.

    A small, fast, seedable PRNG (splitmix64) used everywhere randomness is
    needed so that every experiment in the repository is reproducible from a
    seed.  The global [Random] module is never used by the libraries. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Useful to give subcomponents their own streams. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [[0, n-1]].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [[lo, hi]] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0 .. n-1]. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples from a Zipf distribution over [[0, n-1]] with
    skew [theta] (0 = uniform; typical skew 0.99).  Uses the standard
    rejection-free inverse-CDF approximation of Gray et al. *)
