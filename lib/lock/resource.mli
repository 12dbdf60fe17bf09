(** Lockable resources.

    [Tree n] is the large-granularity tree lock; its name [n] distinguishes
    the old tree from the new tree during the switch (§7.4 gives the new tree
    "a lock name which is distinct from the old B+-tree").  [Page] covers
    base pages and leaf pages; [Rec] is a record-level key lock; [Side_file]
    and [Side_key] protect the side file table (§7.2). *)

type t =
  | Tree of int
  | Page of int
  | Rec of int
  | Side_file
  | Side_key of int

val equal : t -> t -> bool
val hash : t -> int
(** Monomorphic: one match arm per constructor, no polymorphic comparison
    or [Hashtbl.hash]. *)

val compare : t -> t -> int
(** The same total order as the polymorphic [compare] ([Side_file] first,
    then [Tree], [Page], [Rec], [Side_key], each by payload), without its C
    call. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
