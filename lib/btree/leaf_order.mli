(** The leaves' key order, read from the base pages.

    The level-1 (base) pages list their children in key order, so walking
    the internal levels yields every leaf's key-order position without
    fixing a single leaf page (the one exception is a tree whose root is a
    leaf).  {!Tree.leaf_pids} reaches the same order by walking the leaf
    side-pointer chain, one leaf fix per position; that walk stays the
    reference the tests check this cursor against.

    The cursor is the planning state of the swapping-moving pass (pass 2)
    and of the Tandem ordering pass.  It keeps the key-order leaf pids, the
    base page holding each position's entry, and a pid -> position index.
    It sees concurrent changes only when it re-reads base pages: {!next}
    re-reads the one covering the position it returns, and everything when
    that page disagrees.  After a unit of the caller's own succeeds, {!moved}
    and {!swapped} update it in place. *)

type t

val create : Tree.t -> t
(** Read every internal page of the tree once. *)

val reload : t -> unit
(** Re-read all the internal pages — after a unit went stale or gave up,
    or whenever the cursor may have missed a concurrent change. *)

val leaf : t -> int -> int
(** Leaf pid at a key-order position. *)

val base : t -> int -> int
(** Base page holding the position's entry ([-1] when the root is a leaf). *)

val slot : t -> int -> int
(** The page a key-order position belongs in: the position's offset from
    the start of the leaf zone. *)

val position : t -> int -> int option
(** Key-order position of a leaf pid, if the cursor knows it. *)

val leaves : t -> int list
(** All leaf pids in key order. *)

val out_of_order : t -> int
(** Positions whose leaf is not in its {!slot}. *)

val next : t -> from:int -> int option
(** First position at or beyond [from] whose leaf is not in its slot.
    Before answering it re-reads the base page covering that position, and
    re-reads every base page when that one disagrees with the cursor or
    when no such position is left, so "done" reflects the tree as it is
    now. *)

val moved : t -> org:int -> dest:int -> unit
(** A leaf moved from page [org] into page [dest] and kept its position. *)

val swapped : t -> int -> int -> unit
(** Two leaves exchanged pages (and so positions). *)
