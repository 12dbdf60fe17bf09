(* Ambient per-experiment stat collector.

   Experiments build their databases and engines internally (often several of
   each: ours vs. Tandem vs. offline arms), so the benchmark harness cannot
   reach the components to read their counters.  Instead, a collector is made
   ambient for the duration of one experiment: [Db.assemble] reports every
   component set it wires ([note_parts]) and the scheduler's create hook
   reports every engine.  At the end the collector snapshots and sums the
   counters — totals over all arms, which is the right unit for regression
   tracking (the arms are part of the experiment's work). *)

type sample = {
  disk : Pager.Disk.stats;
  io_cost : float;
  pool : Pager.Buffer_pool.stats;
  lock : Lockmgr.Lock_mgr.stats;
  wal : Wal.Log.stats;
  engines : int;
  ticks : int;  (* summed logical clocks *)
  dispatches : int;
}

type parts = {
  mutable disks : Pager.Disk.t list;
  mutable pools : Pager.Buffer_pool.t list;
  mutable lockms : Lockmgr.Lock_mgr.t list;
  mutable logs : Wal.Log.t list;
  mutable engs : Sched.Engine.t list;
}

let current : parts option ref = ref None

let note_parts ~disk ~pool ~locks ~log =
  match !current with
  | None -> ()
  | Some c ->
    c.disks <- disk :: c.disks;
    c.pools <- pool :: c.pools;
    c.lockms <- locks :: c.lockms;
    c.logs <- log :: c.logs

let note_store (st : Shard.Store.t) =
  note_parts ~disk:st.Shard.Store.disk ~pool:st.Shard.Store.pool ~locks:st.Shard.Store.locks
    ~log:st.Shard.Store.log

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let total c =
  let dstats = List.map Pager.Disk.stats c.disks in
  let disk =
    List.fold_left
      (fun (a : Pager.Disk.stats) (b : Pager.Disk.stats) ->
        {
          Pager.Disk.reads = a.reads + b.reads;
          writes = a.writes + b.writes;
          seq_reads = a.seq_reads + b.seq_reads;
          rand_reads = a.rand_reads + b.rand_reads;
          seq_writes = a.seq_writes + b.seq_writes;
          rand_writes = a.rand_writes + b.rand_writes;
        })
      {
        Pager.Disk.reads = 0;
        writes = 0;
        seq_reads = 0;
        rand_reads = 0;
        seq_writes = 0;
        rand_writes = 0;
      }
      dstats
  in
  let pool =
    List.fold_left
      (fun (a : Pager.Buffer_pool.stats) p ->
        let b = Pager.Buffer_pool.stats p in
        {
          Pager.Buffer_pool.s_hits = a.s_hits + b.s_hits;
          s_misses = a.s_misses + b.s_misses;
          s_flushes = a.s_flushes + b.s_flushes;
          s_dep_flushes = a.s_dep_flushes + b.s_dep_flushes;
          s_evictions = a.s_evictions + b.s_evictions;
          s_torn_detected = a.s_torn_detected + b.s_torn_detected;
        })
      {
        Pager.Buffer_pool.s_hits = 0;
        s_misses = 0;
        s_flushes = 0;
        s_dep_flushes = 0;
        s_evictions = 0;
        s_torn_detected = 0;
      }
      c.pools
  in
  let lock =
    List.fold_left
      (fun (a : Lockmgr.Lock_mgr.stats) m ->
        let b = Lockmgr.Lock_mgr.stats m in
        {
          Lockmgr.Lock_mgr.acquires = a.acquires + b.acquires;
          waits = a.waits + b.waits;
          grants_after_wait = a.grants_after_wait + b.grants_after_wait;
          instant_signals = a.instant_signals + b.instant_signals;
          give_ups = a.give_ups + b.give_ups;
          cancelled_waits = a.cancelled_waits + b.cancelled_waits;
          deadlocks = a.deadlocks + b.deadlocks;
          releases = a.releases + b.releases;
          scan_steps = a.scan_steps + b.scan_steps;
          instant_checks = a.instant_checks + b.instant_checks;
        })
      {
        Lockmgr.Lock_mgr.acquires = 0;
        waits = 0;
        grants_after_wait = 0;
        instant_signals = 0;
        give_ups = 0;
        cancelled_waits = 0;
        deadlocks = 0;
        releases = 0;
        scan_steps = 0;
        instant_checks = 0;
      }
      c.lockms
  in
  let wal =
    List.fold_left
      (fun (a : Wal.Log.stats) l ->
        let b = Wal.Log.stats l in
        { Wal.Log.records = a.records + b.records; bytes = a.bytes + b.bytes; forced = a.forced + b.forced })
      { Wal.Log.records = 0; bytes = 0; forced = 0 }
      c.logs
  in
  {
    disk;
    io_cost = Pager.Disk.io_cost disk;
    pool;
    lock;
    wal;
    engines = List.length c.engs;
    ticks = sum Sched.Engine.now c.engs;
    dispatches = sum Sched.Engine.dispatches c.engs;
  }

let with_collector f =
  (match !current with
  | Some _ -> invalid_arg "Probe.with_collector: collector already active"
  | None -> ());
  let c = { disks = []; pools = []; lockms = []; logs = []; engs = [] } in
  current := Some c;
  (* Register by id so hooks installed by anyone else stay in place. *)
  let hook = Sched.Engine.add_create_hook (fun e -> c.engs <- e :: c.engs) in
  let store_hook = Shard.Store.add_assemble_hook note_store in
  Fun.protect
    ~finally:(fun () ->
      current := None;
      Sched.Engine.remove_create_hook hook;
      Shard.Store.remove_assemble_hook store_hook)
    (fun () ->
      let r = f () in
      (r, total c))
