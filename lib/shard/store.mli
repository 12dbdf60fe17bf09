(** One per-tree storage bundle: disk, fault controller, buffer pool, log,
    lock manager, transaction manager, allocator, B+-tree and the concurrent
    access layer, with the cross-module hooks installed
    (WAL rule, logical undo, fault injection), all emitting on one event
    stream that the store's health tracker subscribes to.

    Historically this record {e was} the database ([Sim.Db.t]); extracting it
    makes the bundle reusable — a sharded engine assembles one store per
    keyspace shard, each an independent lock/log/recovery domain, while
    [Sim.Db] remains the one-store special case.

    The disk and the log both obey the store's {!Pager.Fault.t}:
    arm a plan and the machine dies — {!Pager.Fault.Crash} — at the
    scheduled write or force boundary; then {!crash_now} makes the crash
    official and reboots.  Sharded assemblies pass one {e shared} fault
    controller to every store so a simulated crash remains a single
    machine-wide event. *)

type t = {
  disk : Pager.Disk.t;  (** the in-memory disk everything I/Os through, gated by [faults] *)
  faults : Pager.Fault.t;
  pool : Pager.Buffer_pool.t;
  log : Wal.Log.t;
  journal : Transact.Journal.t;
  locks : Lockmgr.Lock_mgr.t;
  mgr : Transact.Txn_mgr.t;
  alloc : Pager.Alloc.t;
  tree : Btree.Tree.t;
  access : Btree.Access.t;
  bus : Obs.Bus.t;
      (** the store's one event stream: every component emits on it; the
          trace, the protocol checker and [health] subscribe *)
  health : Obs.Health.t;
      (** incrementally-maintained tree health, subscribed to [bus]: page
          mutations, allocator churn, the side file's backlog and the
          reorganizer's unit/switch events — see {!Obs.Health} *)
  shard : int * int;
      (** [(index, count)] — this store's position in a sharded assembly;
          [(0, 1)] for a standalone database.  Drives the id lattices that
          keep owner ids globally disjoint across shards. *)
}

val assemble :
  ?faults:Pager.Fault.t ->
  ?record_locking:bool ->
  ?shard:int * int ->
  page_size:int ->
  leaf_pages:int ->
  capacity:int option ->
  mk_tree:(journal:Transact.Journal.t -> alloc:Pager.Alloc.t -> Btree.Tree.t) ->
  unit ->
  t
(** Wire every subsystem and install the cross-module hooks; [mk_tree] is
    called once the journal and allocator exist (empty-tree creation and
    bulk load differ only here).  [shard:(i, n)] puts the transaction
    manager's owner ids on the lattice [i+1 + k*n] (see
    {!Transact.Txn_mgr.create}).  Registered assemble hooks run last. *)

val create :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?leaf_pages:int ->
  ?capacity:int ->
  ?record_locking:bool ->
  ?shard:int * int ->
  unit ->
  t
(** Empty tree, flushed durable (as after CREATE DATABASE).  Defaults:
    512-byte pages, 1024-page leaf zone, unbounded pool.  [faults] shares an
    existing fault controller; by default each store gets its own. *)

val load :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?leaf_pages:int ->
  ?capacity:int ->
  ?record_locking:bool ->
  ?shard:int * int ->
  fill:float ->
  ?internal_fill:float ->
  (int * string) list ->
  t
(** Bulk-loaded tree (sorted records), flushed to disk. *)

val add_assemble_hook : (t -> unit) -> int
(** Register a global hook called with every store subsequently assembled —
    the benchmark harness uses it to find the stores an experiment builds
    internally.  Hooks compose (same contract as
    {!Sched.Engine.add_create_hook}); returns an id for
    {!remove_assemble_hook}. *)

val remove_assemble_hook : int -> unit
(** Remove one hook by id; unknown ids are ignored. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register the lock manager's, buffer pool's, log's, fault controller's,
    tree-health and optimistic-read ([olc.*]) gauges.  Sharded assemblies pass a
    [Obs.Registry.prefixed reg "shard<i>."] view so every shard's metrics
    coexist in one registry. *)

val volatile_teardown : t -> unit
(** Drop this store's volatile state as a crash would: log tail and
    buffer-pool frames vanish, locks and active transactions are cleared,
    in-memory health knowledge and optimistic-read page versions are
    invalidated.  Does {e not} touch the fault
    controller — callers that share one controller across several stores
    (sharded crash) kill/revive it once around tearing every store down. *)

val crash_now : ?flush_seed:int -> t -> unit
(** The authoritative crash/reboot event for a standalone store: the fault
    controller is disarmed, (optionally, when the machine is still alive and
    [flush_seed] is given) a seeded random half of the dirty pages is
    flushed, then kill / {!volatile_teardown} / revive.  Combine with
    [Reorg.Recovery.restart] to come back up. *)

val flush_all : t -> unit

val payload_for : int -> string
(** Canonical test payload for a key. *)
