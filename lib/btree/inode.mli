(** Raw (unlogged) operations on internal ("index") pages.

    This B+-tree variant is the paper's: an internal node with [n] keys has
    [n] children, each entry being [(low key of child subtree, child page)].
    Entries are fixed-size (12 bytes) and kept sorted by key.  Search
    descends to the child with the {e greatest key <= search key}.  Base
    pages — internal pages at level 1 — carry the "low mark" the pass-3
    scan cursor (CK) is expressed in. *)

type entry = { key : int; child : int }

val init : Pager.Page.t -> level:int -> low_mark:int -> unit

val is_internal : Pager.Page.t -> bool
val level : Pager.Page.t -> int

val nentries : Pager.Page.t -> int
val capacity : Pager.Page.t -> int
val low_mark : Pager.Page.t -> int
val set_low_mark : Pager.Page.t -> int -> unit

val generation : Pager.Page.t -> int
val set_generation : Pager.Page.t -> int -> unit

val entry_at : Pager.Page.t -> int -> entry

val key_at : Pager.Page.t -> int -> int
(** Key of entry [i], read in place. *)

val child_at : Pager.Page.t -> int -> int
(** Child page of entry [i], read in place. *)

val entries : Pager.Page.t -> entry list
val fill_factor : Pager.Page.t -> float

val child_for : Pager.Page.t -> int -> int
(** Child page whose subtree covers the key: the entry with the greatest key
    <= key, or the first entry if the key precedes all of them.  Read in
    place, no [entry] is built.  Raises [Not_found] on an empty node. *)

val child_index_for : Pager.Page.t -> int -> int
(** Index of the entry {!child_for} follows. *)

val find_child : Pager.Page.t -> int -> int option
(** Index of the entry pointing at a given child page. *)

val find_key : Pager.Page.t -> int -> int option
(** Index of the entry with exactly this key. *)

val insert : Pager.Page.t -> entry -> bool
(** Sorted insert; [false] when full.  Raises [Invalid_argument] on a
    duplicate key. *)

val delete_key : Pager.Page.t -> int -> entry option
(** Remove the entry with exactly this key. *)

val delete_at : Pager.Page.t -> int -> unit

val update_at : Pager.Page.t -> int -> entry -> unit

val split_point : Pager.Page.t -> int
val take_from : Pager.Page.t -> int -> entry list

val next_entry_key : Pager.Page.t -> int -> int option
(** Smallest entry key strictly greater than the argument (Get_Next within
    one page). *)
