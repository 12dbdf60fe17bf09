(** Page allocator with disk zones.

    The paper assumes "the leaf pages and internal pages are in a different
    part of the disk", and its Find-Free-Space heuristic reasons about empty
    pages {e by position} within the leaf area.  The allocator therefore
    divides the disk into three zones:

    {v
      [0, meta)            meta pages (the root-location page lives here)
      [meta, meta+leaf)    leaf zone
      [meta+leaf, ...)     internal zone (grows on demand)
    v}

    A page is free iff its on-{e pool} kind byte is {!Page.kind_free}; the free
    sets are rebuilt from a disk scan at recovery ({!rebuild}), so allocation
    state needs no separate persistence.  Freeing a page rewrites its kind
    byte through the buffer pool (the caller is responsible for logging that
    mutation if it must be redoable). *)

type t

type zone = Leaf | Internal

val create : pool:Buffer_pool.t -> meta_pages:int -> leaf_pages:int -> t
(** Sizes the zones and grows the disk to cover meta + leaf zones.  All pages
    except the meta pages start free. *)

val leaf_zone : t -> int * int
(** [lo, hi) bounds of the leaf zone. *)

val topic : Obs.Bus.topic

type Obs.Bus.event +=
  | Allocated of int  (** a successful allocation, by any path *)
  | Released of int  (** a page returned to a free set *)
(** Allocator churn, emitted on the pool's bus under {!topic}.  The
    tree-health tracker counts it and re-examines the affected pages. *)

val alloc : t -> zone -> int
(** Smallest free page id in the zone.  The internal zone grows on demand; an
    exhausted leaf zone falls back to the internal zone (counted in
    {!leaf_overflows}). The page's kind byte is left untouched — the caller
    formats it (and thereby makes it non-free). *)

val alloc_specific : t -> int -> unit
(** Claim a specific free page (used by copying-switching, which chose its
    target itself).  Raises [Invalid_argument] if the page is not free. *)

val try_claim : t -> int -> bool
(** [alloc_specific] that reports failure instead of raising: claims the
    page and returns [true] iff it is still free.  Lets a reorganization
    unit atomically re-validate its chosen destination after lock waits
    (a concurrent updater may have allocated it meanwhile). *)

val free : t -> int -> unit
(** Mark the page free: zeroes its kind byte through the pool and returns it
    to its zone's free set. *)

val release : t -> int -> unit
(** Return a page to the free set {e without} touching its bytes — for
    callers that already wrote (and logged) the free kind byte themselves. *)

val free_when_durable : t -> page:int -> after:int -> unit
(** Careful-writing deallocation: free [page] once [after] is durable
    (immediately if it already is). *)

val defer_release : t -> page:int -> until_durable:int -> unit
(** Like {!free_when_durable} but the caller has already written (and
    logged) the free kind byte; only the free-set insertion is deferred.
    The pending page is queryable with {!pending_release}. *)

val pending_release : t -> int -> int option
(** If [page] is awaiting release, the page whose durability it waits on.
    Flushing that page (see {!Buffer_pool.flush_page}) completes the
    release. *)

val is_free : t -> int -> bool

val free_in_range : t -> lo:int -> hi:int -> int option
(** Smallest free page id in [[lo, hi)] — the primitive behind the paper's
    Find-Free-Space heuristic. *)

val free_count : t -> zone -> int
val leaf_overflows : t -> int

val rebuild : t -> unit
(** Recompute the free sets by scanning page kind bytes on disk (recovery). *)
