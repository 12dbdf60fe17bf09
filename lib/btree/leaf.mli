(** Raw (unlogged) operations on leaf pages.

    A leaf is a slotted page: a slot directory of u16 record offsets grows up
    from {!Layout.body_start}, records grow down from the end of the page.
    Slots are kept sorted by key, so lookups binary-search the directory.
    Deletion leaves heap holes; {!compact} rebuilds the heap and insertion
    compacts automatically when fragmentation alone is the obstacle.

    These functions mutate page bytes only — logging, LSN stamping and
    dirty-marking are the caller's job (see {!Transact.Journal}). *)

type record = { key : int; payload : string }

val init : Pager.Page.t -> low_mark:int -> unit
(** Format a page as an empty leaf. *)

val is_leaf : Pager.Page.t -> bool

val nrecords : Pager.Page.t -> int
val low_mark : Pager.Page.t -> int
val set_low_mark : Pager.Page.t -> int -> unit
val prev : Pager.Page.t -> int option
val next : Pager.Page.t -> int option
val set_prev : Pager.Page.t -> int option -> unit
val set_next : Pager.Page.t -> int option -> unit

val find : Pager.Page.t -> int -> string option
(** Payload for an exact key. *)

val mem : Pager.Page.t -> int -> bool

val min_key : Pager.Page.t -> int option
val max_key : Pager.Page.t -> int option

val records : Pager.Page.t -> record list
(** All records in key order. *)

val rev_range : Pager.Page.t -> lo:int -> hi:int -> record list -> record list
(** [rev_range p ~lo ~hi acc] conses the records with [lo <= key <= hi] onto
    [acc] in reverse key order, starting from a binary search for [lo]: one
    range scan's step over one leaf.  Equal to
    [List.rev_append (List.filter in_range (records p)) acc]. *)

val keys : Pager.Page.t -> int list

val record_bytes : record -> int
(** On-page footprint of a record including its slot. *)

val live_bytes : Pager.Page.t -> int
(** Bytes occupied by live records and their slots. *)

val free_bytes : Pager.Page.t -> int
(** Bytes available for new records after compaction. *)

val contiguous_free_bytes : Pager.Page.t -> int
(** Bytes available without compaction. *)

val fill_factor : Pager.Page.t -> float
(** [live_bytes / usable_bytes]. *)

val fits : Pager.Page.t -> record -> bool

val insert : Pager.Page.t -> record -> bool
(** Sorted insert; [false] if the record does not fit even after compaction.
    Raises [Invalid_argument] if the key is already present. *)

val replace : Pager.Page.t -> record -> bool
(** Insert or overwrite. *)

val delete : Pager.Page.t -> int -> string option
(** Remove a key, returning its payload. *)

val compact : Pager.Page.t -> unit
(** Rewrite the heap to squeeze out holes. *)

val split_point : Pager.Page.t -> int
(** Index such that moving slots [>= index] to a new page halves the live
    bytes. *)

val take_from : Pager.Page.t -> int -> record list
(** Remove and return the records at slot index [>= i] (used by page
    splits). *)

val clear : Pager.Page.t -> unit
(** Remove all records (the page stays a formatted leaf). *)
