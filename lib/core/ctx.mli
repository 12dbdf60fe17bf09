(** Shared state of one reorganization run: the access layer it works
    through, its configuration, the §5 system table, metrics, the
    reorganizer's own lock-owner identity (registered as the preferred
    deadlock victim).  Everything it reports goes out on the store's bus
    ({!emit}). *)

type t = {
  access : Btree.Access.t;
  config : Config.t;
  rtable : Rtable.t;
  metrics : Metrics.t;
  actor : Transact.Txn.t;  (** the reorganization process's lock owner *)
  shard : int * int;  (** [(index, count)] of the shard this run works on *)
  worker_rtables : Rtable.t list ref;
      (** system tables of derived {!worker} contexts — their in-flight
          units are truncation floors for the parent's checkpoints *)
}

val make :
  ?registry:Obs.Registry.t ->
  ?shard:int * int ->
  access:Btree.Access.t ->
  config:Config.t ->
  unit ->
  t
(** [registry] attaches the run's {!Metrics} counters.  [shard:(i, n)]
    (default [(0, 1)]) puts unit ids on the lattice [i+1 + k*n] so the
    system tables of concurrently reorganizing shards never share a unit
    id; the actor's lock-owner id is globally unique already because it is
    minted by the shard's strided transaction manager. *)

val emit : t -> Obs.Bus.event -> unit
(** Emit one reorganizer event on the store's bus under {!Prot.topic}.
    {!log_reorg} derives the unit-lifecycle events from the records it
    appends; the passes emit the protocol steps and spans explicitly. *)

val worker : t -> index:int -> count:int -> t
(** A derived context for one of [count] parallel reorganizer workers: its
    own lock-owner identity and system table (with a unit-id lattice
    disjoint across both workers and shards), sharing the parent's access
    layer, configuration and metrics. *)

val span : t -> Prot.phase -> (unit -> 'a) -> 'a
(** [span t phase f] runs [f] between {!Prot.Phase_begin} and
    {!Prot.Phase_end} (the end also when [f] raises). *)

val tree : t -> Btree.Tree.t

val olc : t -> Btree.Olc.t
(** The tree file's optimistic-read version table.  The reorganizer bumps it
    at every raw page mutation that bypasses {!Btree.Tree.physical} and
    registers its units ({!Btree.Olc.unit_begin}/[unit_end]) so optimistic
    readers fall back to the locked protocol while a unit is in flight. *)

val locks : t -> Lockmgr.Lock_mgr.t
val journal : t -> Transact.Journal.t
val pool : t -> Pager.Buffer_pool.t
val log : t -> Wal.Log.t
val alloc : t -> Pager.Alloc.t
val page : t -> int -> Pager.Page.t
val page_size : t -> int
val usable_bytes : t -> int

val log_reorg : t -> Wal.Record.body -> Wal.Lsn.t
(** Append a reorganization record: charged to the reorg log-byte metrics and
    recorded as the unit's most recent LSN in the system table. *)

val stamp : t -> page:int -> Wal.Lsn.t -> unit

val acquire : t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
(** Blocking acquire as the reorganizer (may raise
    {!Transact.Lock_client.Deadlock_victim}). *)

val release : t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
val release_unit_locks : t -> (Lockmgr.Resource.t * Lockmgr.Mode.t) list ref -> unit

val checkpoint : t -> unit
(** Write a checkpoint record (active transactions + reorg table image +
    dirty pages), force the log, then truncate the WAL below the oldest
    record recovery could still need (dirty-frame recovery LSNs, active
    transactions' begins, in-flight units' BEGINs, the pass-3 floor). *)
