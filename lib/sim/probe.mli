(** Ambient per-experiment stat collector for the benchmark harness.

    Experiments assemble their databases and engines internally, so their
    counters are unreachable from the outside.  {!with_collector} makes a
    collector ambient: every {!Db.assemble} reports its component set and
    (via {!Sched.Engine.add_create_hook}) every engine created inside the
    callback is tracked.  When the callback returns, all counters are
    snapshotted and summed — the totals cover every arm an experiment runs,
    which is the unit the machine-readable benchmark baseline records.

    The collector's engine hook is registered and removed by id, so any
    create hook installed by other parties (or by nested tooling) keeps
    firing — collectors no longer clobber foreign hooks.  Collectors
    themselves still do not nest; only the benchmark harness should use
    this. *)

type sample = {
  disk : Pager.Disk.stats;  (** summed over every disk assembled *)
  io_cost : float;  (** {!Pager.Disk.io_cost} of the summed stats, default cost model *)
  pool : Pager.Buffer_pool.stats;
  lock : Lockmgr.Lock_mgr.stats;
  wal : Wal.Log.stats;
  engines : int;  (** engines created inside the window *)
  ticks : int;  (** summed final logical clocks *)
  dispatches : int;
}

val with_collector : (unit -> 'a) -> 'a * sample
(** Run the callback with the collector active (exceptions deactivate it
    too).  Raises [Invalid_argument] if a collector is already active. *)

val note_parts :
  disk:Pager.Disk.t -> pool:Pager.Buffer_pool.t -> locks:Lockmgr.Lock_mgr.t -> log:Wal.Log.t -> unit
(** Report one component set; a no-op when no collector is active.  While a
    collector is active, a {!Shard.Store.add_assemble_hook} registration
    feeds every assembled store here automatically — experiments never call
    this themselves. *)
