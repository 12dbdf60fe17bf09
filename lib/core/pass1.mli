(** Pass 1 — compact the leaves (Figure 2 of the paper).

    Walks the base pages in key order from LK (so a crash resumes where the
    last finished unit left off).  For each group of consecutive sparse
    leaves under one base page that fits into a single page at fill factor
    [f2], it runs one reorganization unit: copying-switching into a
    well-placed empty page when Find-Free-Space finds one, in-place
    compaction otherwise.

    Must run inside a scheduler process.  Returns the number of units
    executed. *)

val run : Ctx.t -> int

val run_bounded : Ctx.t -> lo_key:int -> hi_key:int -> int
(** Compact only the key range [(lo_key, hi_key)] — the building block of
    the parallel mode. *)

val run_parallel : Ctx.t -> workers:int -> int
(** The paper's future-work extension: partition the key space at base-page
    boundaries and compact the ranges concurrently, one worker process (own
    lock identity, own unit-id lattice) per range.  Falls back to {!run}
    for [workers <= 1]. *)
