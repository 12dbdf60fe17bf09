(** Lock manager with queues, instant-duration requests and deadlock
    detection.

    The manager is scheduler-agnostic: {!try_acquire} never blocks; a caller
    that decides to wait parks itself with {!enqueue}, supplying a [wake]
    thunk that the manager calls with [Granted] (or [Deadlock] if the wait was
    chosen as a deadlock victim).  The cooperative scheduler's lock client
    wraps this into a blocking call.

    Grant policy:
    - a new request is granted iff its mode is compatible with every other
      holder {e and} every queued waiter (FIFO fairness — requests do not
      overtake the queue);
    - a {e conversion} (the owner already holds the resource and asks for a
      stronger mode, e.g. the reorganizer's R->X upgrade on base pages) only
      checks other holders and, when queued, goes to the front;
    - an {e instant-duration} request (the paper's unconditional RS, and the
      instant IX on the side file during the switch) is signalled when it
      becomes grantable but never actually granted (§4, [Moh90]).

    Deadlock handling follows the paper: detection on a waits-for graph at
    enqueue time; "whenever the reorganizer gets in a deadlock, we always
    force the reorganizer to give up" — owners registered with
    {!register_reorganizer} are preferred victims; otherwise the requester
    that closed the cycle is chosen. *)

type t

type owner = int

type grant = Granted | Deadlock

type outcome =
  [ `Granted  (** lock acquired (or already covered by a held mode) *)
  | `Conflict of (owner * Mode.t) list  (** blockers: holders and queued waiters *)
  ]

type stats = {
  acquires : int;  (** successful immediate grants *)
  waits : int;  (** requests that had to queue *)
  grants_after_wait : int;
  instant_signals : int;  (** instant-duration requests signalled *)
  give_ups : int;
      (** the paper's give-ups: signalled instant requests where the
          requester abandons its attempt and retries (equal to
          [instant_signals] today — kept distinct so the semantics can
          diverge, e.g. if instant requests gain other uses) *)
  cancelled_waits : int;  (** waits cancelled from outside (switch time limit) *)
  deadlocks : int;  (** victims woken with [Deadlock] *)
  releases : int;
  scan_steps : int;
      (** lock-table work metric, a per-layer proxy: one step per holder
          cell, queued waiter or owner-index element examined.  Holder cells
          count when an owner's cell is looked up and when a request is
          judged against the other holders; waiters count in a new request's
          fairness check; owner-index elements count when the index is
          walked (a new resource, a dropped one, {!release_all},
          {!held_resources}).  The [`Conflict] payload, deadlock detection
          and the {!holders}/{!waiters}/{!locked_count} inspectors are not
          counted. *)
  instant_checks : int;
      (** non-mutating {!probe} calls — the optimistic read path's
          RX-presence tests, counted apart from [acquires] so OLC fallback
          probes don't masquerade as lock traffic *)
}

val create : ?bus:Obs.Bus.t -> unit -> t
(** [bus] is the store's event stream (default: a fresh one of its own). *)

val bus : t -> Obs.Bus.t

val register_reorganizer : t -> owner -> unit
(** Mark [owner] as the reorganization process for victim selection. *)

val try_acquire : t -> owner:owner -> Resource.t -> Mode.t -> outcome
(** Non-blocking acquire.  Re-acquiring a mode already covered by a held mode
    on the same resource is granted re-entrantly. *)

val probe : t -> owner:owner -> Resource.t -> Mode.t -> bool
(** Instant-style grantability test: would {!try_acquire} grant [mode] right
    now?  Takes nothing and never enqueues — the decision is advisory and
    immediately stale.  The optimistic read path probes [S] on a leaf to
    detect an RX/X holder (a reorganization unit or writer mid-flight)
    without generating lock traffic; counted in [stats.instant_checks]. *)

val enqueue :
  t -> owner:owner -> Resource.t -> Mode.t -> instant:bool -> wake:(grant -> unit) -> unit
(** Park a request that {!try_acquire} refused.  [wake] fires later, exactly
    once.  Raises [Invalid_argument] if the owner already has a pending wait
    (cooperative processes wait on one thing at a time). *)

val release : t -> owner:owner -> Resource.t -> Mode.t -> unit
(** Release one acquisition of [mode].  Raises [Invalid_argument] if not
    held. *)

val cancel_wait : t -> owner:owner -> bool
(** Wake the owner's pending wait with [Deadlock], if it has one — used by
    the switch's §7.4 time limit to force old-tree transactions (blocked on
    the side file) to abort.  Returns whether a wait was cancelled. *)

val release_all : t -> owner:owner -> unit
(** Drop every lock held by [owner] and cancel its pending wait, if any
    (the wait's [wake] is {e not} called). *)

val downgrade : t -> owner:owner -> Resource.t -> from_:Mode.t -> to_:Mode.t -> unit
(** Atomically replace one held mode by a weaker one (e.g. S -> IS after
    reading), then re-examine the queue. *)

val holds : t -> owner:owner -> Resource.t -> Mode.t list
(** Modes currently held by [owner] on the resource (with multiplicity 1 per
    distinct mode). *)

val held_resources : t -> owner:owner -> (Resource.t * Mode.t list) list

val holders : t -> Resource.t -> (owner * Mode.t list) list

val waiters : t -> Resource.t -> (owner * Mode.t) list

val wait_edges : t -> owner -> owner list
(** Local waits-for edges of [owner]: the holders and earlier queued waiters
    whose modes conflict with its pending request here.  Empty if the owner
    is not waiting in this manager. *)

val set_extra_edges : t -> (owner -> owner list) option -> unit
(** Install (or clear) a source of waits-for edges from outside this lock
    domain.  Deadlock detection unions these with the local edges, so a
    coordinator that points each shard's manager at the other shards'
    {!wait_edges} makes cross-shard cycles visible to every local detector.
    The closure must return {e raw local} edges of other managers only —
    never their own combined view — or detection would recurse forever. *)

val locked_count : t -> owner:owner -> int
(** Number of distinct resources on which [owner] holds at least one mode —
    the "how much of the tree does the reorganizer lock" metric. *)

val max_locked_count : t -> owner:owner -> int
(** High-water mark of {!locked_count} since creation or the last
    {!reset_max_locked}. *)

val reset_max_locked : t -> owner:owner -> unit

val clear : t -> unit
(** Drop every lock and pending wait without waking anyone — crash
    simulation (lock state is volatile). *)

val stats : t -> stats
val reset_stats : t -> unit

(** {2 Observability} *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register [lock.acquires], [lock.releases], [lock.waits],
    [lock.grants_after_wait], [lock.instant_signals], [lock.give_ups]
    (instant-duration RS signals — the paper's give-up count),
    [lock.cancelled_waits] (switch-time forced aborts), [lock.deadlocks],
    [lock.scan_steps], [lock.instant_checks], and per-mode
    [lock.{acquires,waits,deadlock_victims}.<MODE>] gauges.  Each gauge reads
    the like-named {!stats} counter. *)

val mode_tally : t -> Mode.t -> int * int * int
(** [(acquires, waits, deadlock_victims)] for one mode. *)

(** {2 Protocol events}

    Every observable lock-table decision, emitted on the manager's bus under
    {!topic}: the model-conformance checker ([lib/model]) replays them, and
    the trace renders the victims.  Events fire in decision order: a
    deadlock victim's {!Ev_victim} precedes the {!Ev_granted}s its removal
    enables; a grant after waiting fires before the waiter's [wake]. *)

val topic : Obs.Bus.topic

type Obs.Bus.event +=
  | Ev_granted of { owner : owner; res : Resource.t; mode : Mode.t; after_wait : bool }
      (** a mode was added to the owner's holdings (immediately, by
          conversion/cover, or — [after_wait] — when its queued wait fired) *)
  | Ev_queued of {
      owner : owner;
      res : Resource.t;
      mode : Mode.t;
      instant : bool;
      conversion : bool;
    }  (** the request conflicted and parked in the queue *)
  | Ev_signalled of { owner : owner; res : Resource.t; mode : Mode.t }
      (** instant-duration request signalled (never granted): the give-up *)
  | Ev_victim of { owner : owner; res : Resource.t; mode : Mode.t; forced : bool }
      (** wait woken with [Deadlock]: victim selection, or a [forced]
          switch-drain {!cancel_wait} *)
  | Ev_dequeued of { owner : owner; res : Resource.t; mode : Mode.t }
      (** wait silently dropped by its own owner's {!release_all} *)
  | Ev_released of { owner : owner; res : Resource.t; mode : Mode.t }
      (** one acquisition released (bulk {!release_all} emits one event per
          held acquisition) *)
