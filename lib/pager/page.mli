(** Fixed-size binary pages.

    A page is a [bytes] buffer with a small header owned by the pager:

    {v
      offset 0       : kind (u8)    -- 0 = free, other values owned by layers above
      offsets 1..4   : body checksum (u32, big-endian; 0 = never stamped)
      offsets 5..12  : page LSN (i64, big-endian)
    v}

    Everything from {!header_size} on belongs to the layer that owns the page
    (the B+-tree defines leaf / internal / meta layouts there).  All multi-byte
    integers are big-endian so page images are deterministic and comparable.

    The LSN sits {e inside} the checksummed region on purpose.  The torn-write
    model lands only the first {!torn_prefix} bytes (kind + checksum), so a
    tear leaves the previous (LSN, body) pair intact and mutually consistent:
    verification sees the checksum/body mismatch, and the surviving LSN tells
    recovery exactly which log suffix to replay.  If the LSN lived with the
    checksum, a tear would leave a new LSN over an old body and the replay
    start point would be unrecoverable. *)

type t = bytes

val header_size : int
(** First offset available to higher layers (= 13). *)

val torn_prefix : int
(** Length of the atomically-written prefix (kind + checksum, = 5).  A torn
    write applies exactly these bytes; the LSN and body keep their previous
    contents. *)

val kind_free : int
(** The [kind] value of an unallocated page (= 0). *)

val create : size:int -> t
(** A zeroed page; its kind is {!kind_free}. *)

val kind : t -> int
val set_kind : t -> int -> unit

val lsn : t -> int64
val set_lsn : t -> int64 -> unit

val checksum : t -> int
(** The stored body checksum; 0 means the page was never stamped (virgin
    pages, or images written around the buffer pool) and is accepted
    unconditionally on read. *)

val set_checksum : t -> int -> unit

val body_checksum : t -> int
(** 32-bit checksum over bytes [[torn_prefix, size)] — the page LSN and the
    body — computed a 32-bit word at a time.  Each input word (or trailing
    byte) enters through a mixing step that is a bijection on the 32-bit
    state, so changing any single one of them changes the result (barring
    the one collision the 0-to-1 mapping below introduces).  Never returns
    0, so a stamped page always verifies against a nonzero stored value.
    The prefix itself (kind, checksum) is {e not} covered: a torn write that
    lands the prefix but not the rest is exactly what the checksum
    detects. *)

(** {2 Raw accessors}  Bounds-checked by the underlying [Bytes] primitives. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val get_key : t -> int -> int
(** Keys are stored as i64 but used as OCaml ints. *)

val set_key : t -> int -> int -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
val sub : t -> int -> int -> string
val fill : t -> int -> int -> char -> unit
val copy_into : src:t -> dst:t -> unit
(** Whole-page copy; the two pages must have equal size. *)

val equal : t -> t -> bool
