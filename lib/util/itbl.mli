(** Int-keyed hash table with a monomorphic equality and an inline identity
    hash — no polymorphic comparison and no C hashing call per lookup.  Used
    for the buffer pool's frame, careful-writing and waiter tables and the
    lock manager's per-owner tables.  Iteration order is unspecified: callers
    that fold a table sort the result before using it. *)

include Hashtbl.S with type key = int
