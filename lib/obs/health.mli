(** Online tree-health telemetry: incrementally-maintained fill-factor,
    fragmentation, side-file backlog and free-space signals — the live
    observability the auto-reorg policy roadmap item needs.

    The tracker never scans the tree.  Mutation sites (the buffer pool's
    [Dirtied] events, in this repository) push {e page ids} into a pending
    set via {!note_dirty}; reading any statistic drains the set through an injected
    {!set_refresher} closure that re-examines just those pages and updates
    the aggregates by delta.  The cost of maintenance is therefore
    O(pages touched since the last reading), independent of tree size, and
    zero I/O happens while nobody is looking.

    The tracker itself is storage-agnostic: it knows page ids and
    {!page_info} records, nothing about B+-trees.  The wiring layer
    ({!Sim.Db} here) supplies the refresher that decodes a page.

    Fragmentation follows the logical-vs-physical adjacency view of the
    leaf chain: page [p] whose logical successor is not page [p+1] is a
    {e break}; the fragmentation index is breaks / (leaves - 1).  A freshly
    reorganized file (Find-Free-Space marches compacted pages toward the
    start of the leaf zone in key order) approaches 0. *)

type t

type page_info = {
  live : int;  (** bytes occupied by live records and their slots *)
  usable : int;  (** usable bytes of the page *)
  next_pid : int option;  (** physical id of the logical successor *)
  low_key : int;  (** low mark — lets watches aggregate over key regions *)
}

val create : unit -> t

val set_refresher : t -> (int -> page_info option) -> unit
(** [refresher pid] re-examines one page: [Some info] if it is currently a
    leaf of the tree, [None] if it is free, internal, meta, or gone.  The
    closure is the only way the tracker ever learns page contents. *)

val note_dirty : t -> int -> unit
(** O(1): enqueue a page for lazy re-examination.  Safe to call from any
    mutation path, before or after the bytes change — the page is only read
    when statistics are next consulted. *)

val invalidate_all : t -> unit
(** Mark every tracked page pending (a crash discarded the buffer pool, so
    in-memory knowledge may be ahead of the disk image). *)

val refresh : t -> unit
(** Drain the pending set now.  Called implicitly by every reader. *)

val pending_count : t -> int
val tracked : t -> int

(** {2 Signals fed by the store's event stream} *)

type side_event = Append | Take | Removed | Restored

val side_event : t -> size:int -> side_event -> unit
(** Side file: called with the new backlog size after every append /
    take / undo-remove / recovery-restore. *)

val note_alloc_event : t -> [ `Alloc | `Free ] -> int -> unit
(** Allocator: page [pid] was allocated or freed.  Counts churn and
    enqueues the page for re-examination. *)

val set_free_probe : t -> (unit -> int) -> unit
(** Live gauge for the number of free pages in the leaf zone. *)

val note_unit : t -> unit
(** A reorganization unit completed (pass 1 compact, pass 2 swap/move). *)

val note_switch : t -> unit
(** Pass 3 switched the tree to the new upper levels. *)

(** {2 Statistics} *)

val buckets : int
(** Number of fill-factor histogram buckets (10: deciles). *)

val bucket_index : live:int -> usable:int -> int
(** Decile bucket for a page at this fill — exposed so brute-force
    recomputations (tests) bucket identically. *)

type stats = {
  leaves : int;
  live_bytes : int;
  usable_bytes : int;
  utilization : float;  (** live / usable over all leaves; 0 when empty *)
  chain_breaks : int;
  fragmentation : float;  (** breaks / (leaves - 1); 0 for <= 1 leaf *)
  fill_buckets : int array;  (** leaf count per fill decile *)
  backlog : int;  (** current side-file size *)
  backlog_peak : int;
  free_pages : int;
  units : int;
  switches : int;
  allocs : int;
  frees : int;
  side_appends : int;
  side_takes : int;
  watch_fires : int;
}

val stats : t -> stats
(** Refreshes, then snapshots every aggregate. *)

val utilization : t -> float
val fragmentation : t -> float

val region_utilization : t -> lo:int -> hi:int -> float
(** Utilization over the leaves whose low mark falls in [[lo, hi]] —
    O(tracked pages), still no page I/O.  1.0 when the region is empty (a
    vacuous region is not sparse). *)

(** {2 Threshold watches — the auto-reorg policy seam}

    A watch is an edge-triggered threshold subscription: the callback fires
    when the condition {e becomes} true (checked at every {!check_watches},
    i.e. every sampler tick), then re-arms when it turns false.  The future
    reorg-policy daemon subscribes "utilization < 0.55 over region R" and
    triggers passes from the callback. *)

type signal = Utilization | Fragmentation | Backlog

type fire = { f_name : string; f_value : float; f_at : int }

val watch :
  t ->
  ?region:int * int ->
  name:string ->
  signal:signal ->
  op:[ `Lt | `Gt ] ->
  threshold:float ->
  (fire -> unit) ->
  unit
(** Register (replacing any watch of the same name).  [region] restricts
    {!Utilization} to leaves whose low mark lies in the inclusive range;
    it is ignored for the global {!Fragmentation} / {!Backlog} signals. *)

val unwatch : t -> string -> unit

val check_watches : t -> now:int -> fire list
(** Evaluate every watch (refreshing first); run and return the fires, in
    watch registration order.  Watches never fire on an empty tree. *)

val watch_fires : t -> int

val register_obs : t -> Registry.t -> unit
(** Register [health.*] gauges (leaves, utilization and fragmentation in
    per-mille, fill deciles, backlog, free pages, unit/switch/alloc churn,
    watch fires) — readable through the registry's table and JSON dumps. *)

(** {2 Periodic time-series sampler}

    Deterministic snapshots on a logical clock: utilization, fragmentation,
    backlog, free pages, fill histogram, plus arbitrary integer probes
    (pool flushes, WAL bytes, ...) with per-interval deltas.  Each sample
    also evaluates the watches; fires are recorded in the snapshot and — when
    a tracer is attached — as Chrome-trace counter events and
    [health.watch-fire] instants. *)
module Sampler : sig
  type health := t

  type snapshot = {
    at : int;  (** logical clock *)
    leaves : int;
    utilization : float;
    fragmentation : float;
    backlog : int;
    free_pages : int;
    fill_buckets : int array;
    probes : (string * int * int) list;  (** name, value, delta since previous sample *)
    fired : string list;  (** watches that fired at this tick *)
  }

  type t

  val create : ?tracer:Trace.t -> ?tid:int -> ?clock:(unit -> int) -> health -> t
  (** [clock] supplies logical timestamps (default: constant 0; the
      scenario harness points it at the scheduler before spawning the
      sampling process). *)

  val set_clock : t -> (unit -> int) -> unit

  val add_probe : t -> string -> (unit -> int) -> unit
  (** Registration order is emission order (deterministic). *)

  val sample : t -> snapshot
  (** Take one snapshot now: refresh health, evaluate watches, read probes,
      record, and emit trace counter events when a tracer is attached. *)

  val snapshots : t -> snapshot list
  (** All snapshots, oldest first. *)

  val count : t -> int
end
