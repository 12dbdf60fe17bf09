(** Forward-recovery torture harness, for one store and for a sharded
    machine.

    The paper's §5.1 claim — a crashed reorganization unit is {e finished},
    never rolled back — is only believable if it holds at {e every} write
    boundary, not a sampled handful.  Both entry points make that
    systematic with one sweep: a fault-free dry run of a seeded workload
    counts the page-write and log-force boundaries across every store; then,
    for every boundary in turn (or every [stride]-th), a fresh identical
    build is made, the shared fault controller is armed to kill the machine
    exactly there — sometimes tearing the final page write or a WAL tail —
    and after the crash, recovery of every store and the resumed
    reorganizations, {!verify} runs.

    Any violation, and any exception escaping recovery, raises {!Failed}
    naming the crash point, so a deliberately broken recovery is caught
    with a precise reproducer ([--seed N] + the reported boundary). *)

exception Failed of string

type expectation = {
  base : (int * string) list;  (** even-keyed records that must survive exactly *)
  attempted : (int, string) Hashtbl.t;  (** odd-keyed inserts that {e may} survive *)
  mutable acked : (int * string) list list;
      (** acknowledged transactions, each one group of odd-keyed inserts that
          {e must} survive whole; a single insert is a group of one *)
}

val expectation_of_base : (int * string) list -> expectation
(** No concurrent users: the stores must hold exactly [base]. *)

val verify : Shard.Store.t array -> expectation -> unit
(** The post-recovery checks, over stores whose key ranges ascend in array
    order (one store is [[|db|]]):

    - every store's structural B+-tree invariant, including the leaf
      side-pointer chain ({!Btree.Invariant.check}), and key order of the
      merged contents;
    - no base record lost, changed or duplicated; no phantom user record;
    - {b all-or-nothing}: every key of every acknowledged group is present
      (unacknowledged transactions may commit a prefix of their shards —
      the client was never told they committed);
    - every unit whose BEGIN is in a store's stable log also has its END —
      recovery finished all interrupted units forward.

    Raises {!Failed} on the first violation.  Public so tests can show that
    a corrupted database {e is} caught (the harness's own mutation test). *)

type report = {
  write_boundaries : int;  (** page-write crash points discovered *)
  force_boundaries : int;  (** log-force crash points discovered *)
  points : int;  (** crash points actually tested *)
  crashes : int;  (** plans that tripped *)
  torn_writes : int;
  torn_tails : int;
  units_finished : int;  (** units recovery finished forward, summed *)
  torn_repaired : int;  (** torn pages detected and rebuilt by redo *)
  survivors : int;  (** armed plans whose boundary was never reached *)
  acked_txns : int;  (** acknowledged transactions verified, summed *)
}

val run :
  ?registry:Obs.Registry.t ->
  ?tracer:Obs.Trace.t ->
  ?checker:Model.Checker.t ->
  ?config:Reorg.Config.t ->
  ?leaf_pages:int ->
  ?n:int ->
  ?users:int ->
  ?pipeline:bool ->
  seed:int ->
  stride:int ->
  unit ->
  report
(** One store: an aged tree of [n] records (default 400) at fill 0.3 in a
    [leaf_pages] leaf zone (default 512) with 512-byte pages, its full
    reorganization, and [users] writers (default 0) doing single-insert
    transactions.  Fully deterministic from the arguments.  [registry]
    accumulates [fault.*] and [recovery.*] counters across all cycles, and
    holds the last run's reorganizer counters ([core.*]).  [pipeline:true] runs every cycle with the asynchronous
    durability pipeline attached ({!Pipeline}) — crash boundaries then land
    inside group-commit windows and elevator sweeps, and fuzzy checkpoints
    truncate the WAL mid-workload.  With [config.olc] every user reads its
    inserted key back through the optimistic lock-free path, so crashes
    land inside optimistic descents and the post-crash epoch invalidation is
    exercised. *)

val run_sharded :
  ?checker:Model.Checker.t ->
  ?n:int ->
  ?shards:int ->
  ?users:int ->
  ?xspan:int ->
  seed:int ->
  stride:int ->
  unit ->
  report
(** A sharded machine: [n] base records (default 300) over [shards] shards
    (default 3), one reorganizer per shard, and [users] clients (default 3)
    each issuing transactions that insert into [xspan] distinct shards
    (default 2) through the router and the shard-ordered commit protocol.
    The coordinator acknowledges only after the last shard's commit record
    is forced, so the sweep includes the boundaries {e between} the first
    and the last shard's commit record, and the all-or-nothing check of
    {!verify} must hold at each of them. *)
