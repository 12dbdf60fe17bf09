(** Pass 2 — Swapping-Moving (optional).

    Makes the leaf pages contiguous and in key order at the start of the leaf
    zone: for each key-order position, if the right page is already there do
    nothing; if the target page is empty, {e move} the leaf there (a
    new-place unit, cheap to log); otherwise {e swap} the two leaves (which
    must log at least one full page).  The paper keeps this pass separate and
    optional because swapping locks more (often two parents) and logs more —
    "one scenario we envision is choosing to do swapping only when range
    query performance falls below some acceptable level."

    The pass plans from a {!Btree.Leaf_order} cursor read from the base
    pages, never from the leaf chain: before each unit it re-reads the one
    base page covering the position it works on, so planning costs a
    constant number of page fixes per unit.  Before swapping it tries a
    cascade — moving the leaf that occupies the target page into its own
    free slot — and a slot still awaiting careful-writing release counts as
    free once the write it waits on is forced.

    Returns (swaps, moves).  Must run inside a scheduler process. *)

val run : Ctx.t -> int * int

val out_of_order : Ctx.t -> int
(** Number of leaves not at their key-order position in the leaf zone —
    the quantity pass 2 drives to zero, and the metric the Find-Free-Space
    experiment reports. *)
