(** Incremental bottom-up builder for the new upper levels (§7.1, §7.3).

    Base-page entries arrive in key order from the scan and are packed into
    new level-1 (base) pages at the configured fill factor.  The new pages
    carry a fresh {e generation} tag, which is how recovery tells them from
    the old tree's internal pages.

    At each {e stable point} the current partial page is sealed and every
    page built since the previous stable point is force-written, together
    with a [Stable_key] log record; after a crash, the durable sealed pages
    plus the stable key are exactly enough to resume the scan without
    redoing the whole pass (§7.3).  Levels above 1 are reconstructed from
    the level-1 page list at {!finalize}. *)

type t

val create : Ctx.t -> gen:int -> t

val restore : Ctx.t -> gen:int -> closed:(int * int) list -> t
(** Resume from recovery with the already-durable level-1 pages
    [(low mark, pid)], oldest first. *)

val gen : t -> int

val feed : t -> key:int -> child:int -> unit
(** Append one base-level entry (a leaf). *)

val stable_point : t -> next_key:int -> unit
(** Seal the partial page, force-write everything new, and log
    [Stable_key { key = next_key }] — the scan will resume from [next_key]
    after a crash. *)

val finalize : t -> int
(** Seal, build the levels above, force-write everything, and return the new
    root pid. *)

val closed_pages : t -> (int * int) list
(** Sealed level-1 pages so far, oldest first (exposed for tests). *)
