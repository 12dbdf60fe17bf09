(** The one-store database: a thin veneer over {!Shard.Store}, which wires
    every subsystem together — disk, storage backend, fault controller,
    buffer pool, log, lock manager, transaction manager, allocator, B+-tree
    and the concurrent access layer — with the cross-module hooks installed
    (WAL rule, logical undo, fault injection).  Tests, examples and
    single-tree experiments all start here; sharded assemblies build several
    {!Shard.Store.t} values directly.

    The buffer pool and the log both sit on the database's single
    {!Pager.Fault.t}: arm a plan ([Pager.Fault.arm db.faults plan]) and the
    machine dies — {!Pager.Fault.Crash} — at the scheduled write or force
    boundary; then {!crash_now} makes the crash official and reboots. *)

type t = Shard.Store.t = {
  disk : Pager.Disk.t;  (** the raw in-memory disk (for stats / post-mortems) *)
  backend : Pager.Backend.t;  (** the fault-injecting seam everything I/Os through *)
  faults : Pager.Fault.t;
  pool : Pager.Buffer_pool.t;
  log : Wal.Log.t;
  journal : Transact.Journal.t;
  locks : Lockmgr.Lock_mgr.t;
  mgr : Transact.Txn_mgr.t;
  alloc : Pager.Alloc.t;
  tree : Btree.Tree.t;
  access : Btree.Access.t;
  bus : Obs.Bus.t;  (** the store's one event stream — see {!Shard.Store.t} *)
  health : Obs.Health.t;
      (** incrementally-maintained tree health, subscribed to [bus] — see
          {!Obs.Health} *)
  shard : int * int;  (** [(0, 1)] here — see {!Shard.Store.t} *)
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
(** {!Shard.Store.assemble}. *)

val create :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?leaf_pages:int ->
  ?capacity:int ->
  ?record_locking:bool ->
  unit ->
  t
(** Empty tree.  Defaults: 512-byte pages, 1024-page leaf zone, unbounded
    pool, page-level user locking (see {!Btree.Access.create}).  [faults]
    shares an existing fault controller (the torture harness reuses one
    across crash/recover cycles so its counters accumulate); by default each
    database gets its own. *)

val load :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?leaf_pages:int ->
  ?capacity:int ->
  ?record_locking:bool ->
  fill:float ->
  ?internal_fill:float ->
  (int * string) list ->
  t
(** Bulk-loaded tree (sorted records), flushed to disk. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register the lock manager's, buffer pool's, log's, fault controller's
    and tree-health gauges. *)

val checkpoint : t -> ?reorg_table:Wal.Record.reorg_table -> unit -> unit
(** Write and force a checkpoint record. *)

val crash_now : ?flush_seed:int -> t -> unit
(** The authoritative crash/reboot event: the volatile log tail and every
    buffer-pool frame vanish, locks and active transactions are cleared, the
    fault controller is marked crashed then revived (so recovery's I/O
    works).  If the machine is still alive (no plan tripped) and
    [flush_seed] is given, a seeded random half of the dirty pages is
    flushed first — the arbitrary disk state a buffer manager can leave
    behind.  Combine with {!Reorg.Recovery.restart} to come back up. *)

val flush_all : t -> unit

val payload_for : int -> string
(** Canonical test payload for a key. *)
