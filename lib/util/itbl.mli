(** Int-keyed hash table with a monomorphic equality and an inline identity
    hash — no polymorphic comparison and no C hashing call per lookup.  For
    sparse int keys: the buffer pool's careful-writing and waiter tables and
    the lock manager's per-owner tables (resources held, pending wait,
    high-water mark of resources locked).  Dense tables read on every page
    visit (the pool's frames, the optimistic readers' page versions) are
    arrays indexed by page id instead.  Iteration order is unspecified:
    callers that fold a table sort the result before using it. *)

include Hashtbl.S with type key = int
