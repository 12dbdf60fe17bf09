module Tree = Btree.Tree
module Access = Btree.Access
module Journal = Transact.Journal
module Lock_client = Transact.Lock_client
module Txn_mgr = Transact.Txn_mgr

type t = {
  access : Access.t;
  config : Config.t;
  rtable : Rtable.t;
  metrics : Metrics.t;
  actor : Transact.Txn.t;
  shard : int * int;
  worker_rtables : Rtable.t list ref;
}

let make ?registry ?(shard = (0, 1)) ~access ~config () =
  let shard_i, shard_n = shard in
  if shard_n < 1 || shard_i < 0 || shard_i >= shard_n then
    invalid_arg "Ctx.make: shard index out of range";
  (* The actor id comes from the store's transaction manager, whose lattice
     is already per-shard; the unit-id lattice mirrors it so unit ids of
     different shards' reorganizers never collide either. *)
  let actor = Txn_mgr.fresh_owner (Access.mgr access) in
  Lockmgr.Lock_mgr.register_reorganizer (Access.locks access) actor.Transact.Txn.id;
  {
    access;
    config;
    rtable = Rtable.create ~first_id:(shard_i + 1) ~id_stride:shard_n ();
    metrics = Metrics.create ?registry ();
    actor;
    shard;
    worker_rtables = ref [];
  }

let emit t ev = Obs.Bus.emit (Access.bus t.access) Prot.topic ev

let worker t ~index ~count =
  let shard_i, shard_n = t.shard in
  let actor = Txn_mgr.fresh_owner (Access.mgr t.access) in
  Lockmgr.Lock_mgr.register_reorganizer (Access.locks t.access) actor.Transact.Txn.id;
  (* Worker [index] of shard [shard_i]: interleave the per-shard worker
     lattices so unit ids are disjoint across BOTH workers and shards.
     Reduces to the historical [1_000_000 + index + 1] / [count] lattice in
     the unsharded case. *)
  let rtable =
    Rtable.create
      ~first_id:(1_000_000 + (index * shard_n) + shard_i + 1)
      ~id_stride:(count * shard_n) ()
  in
  (* The parent's checkpoint must see worker units as truncation floors. *)
  t.worker_rtables := rtable :: !(t.worker_rtables);
  {
    access = t.access;
    config = t.config;
    rtable;
    metrics = t.metrics;
    actor;
    shard = t.shard;
    worker_rtables = t.worker_rtables;
  }

let span t phase f =
  emit t (Prot.Phase_begin phase);
  Fun.protect ~finally:(fun () -> emit t (Prot.Phase_end phase)) f

let tree t = Access.tree t.access
let olc t = Btree.Tree.olc (tree t)
let locks t = Access.locks t.access
let journal t = Tree.journal (tree t)
let pool t = Journal.pool (journal t)
let log t = Journal.log (journal t)
let alloc t = Tree.alloc (tree t)
let page t pid = Pager.Buffer_pool.get (pool t) pid
let page_size t = Pager.Buffer_pool.page_size (pool t)
let usable_bytes t = Btree.Layout.usable_bytes ~page_size:(page_size t)

let log_reorg t body =
  let lsn = Wal.Log.append (log t) body in
  Obs.Counter.incr t.metrics.Metrics.log_bytes ~by:(Wal.Log.record_size (log t) lsn);
  Obs.Counter.incr t.metrics.Metrics.log_records;
  Rtable.note_lsn t.rtable lsn;
  (* All unit-lifecycle WAL records flow through here (execution, §5.2 undo
     and recovery completions alike), so this is the one place the protocol
     stream derives its Unit_* events. *)
  let actor = t.actor.Transact.Txn.id in
  (match body with
  | Wal.Record.Reorg_begin { unit_id; rtype; base_pages; leaf_pages } ->
    emit t
      (Prot.Unit_begin
         { actor; unit_id; kind = rtype; bases = base_pages; leaves = leaf_pages; lsn })
  | Wal.Record.Reorg_move { unit_id; org; dest; _ } ->
    emit t (Prot.Unit_move { actor; unit_id; org; dest; lsn })
  | Wal.Record.Reorg_modify { unit_id; base; _ } ->
    emit t (Prot.Unit_modify { actor; unit_id; base; lsn })
  | Wal.Record.Reorg_end { unit_id; largest_key; _ } ->
    emit t (Prot.Unit_end { actor; unit_id; largest_key; lsn })
  | _ -> ());
  lsn

let stamp t ~page lsn = Journal.stamp (journal t) ~page lsn

let acquire t res mode = Lock_client.acquire (locks t) ~txn:t.actor res mode
let release t res mode = Lock_client.release (locks t) ~txn:t.actor res mode

let release_unit_locks t held =
  List.iter (fun (res, mode) -> release t res mode) !held;
  held := []

let checkpoint t =
  let mgr = Access.mgr t.access in
  let body =
    Wal.Record.Checkpoint
      {
        active_txns = Txn_mgr.active_txns mgr;
        reorg = Rtable.image t.rtable;
        dirty_pages = Pager.Buffer_pool.dirty_pages (pool t);
      }
  in
  let lsn = Wal.Log.append (log t) body in
  Wal.Log.force (log t) lsn;
  (* Fuzzy-checkpoint truncation: everything below the oldest record anyone
     could still need is reclaimed.  The floors are the checkpoint itself,
     the oldest recovery LSN of a dirty frame, the oldest active
     transaction's begin, each in-flight reorganization unit's BEGIN (main
     table and parallel workers), and the pass-3 floor pinned while the
     side file / stable key / switch records must stay replayable. *)
  let keep = ref lsn in
  let lower l = if l <> Wal.Lsn.nil && l < !keep then keep := l in
  (* A recovery LSN of 0 is a dirty frame whose first mutation was never
     stamped (virgin page): no lower bound is known, so pin everything. *)
  (match Pager.Buffer_pool.min_rec_lsn (pool t) with
  | Some l -> keep := min !keep (max 1 (Wal.Lsn.of_int64 l))
  | None -> ());
  (match Txn_mgr.oldest_begin_lsn mgr with Some l -> lower l | None -> ());
  List.iter
    (fun rt ->
      let img = Rtable.image rt in
      if img.Wal.Record.rt_unit <> None then lower img.Wal.Record.rt_begin_lsn;
      lower (Rtable.floor rt))
    (t.rtable :: !(t.worker_rtables));
  Wal.Log.truncate (log t) ~keep_from:!keep
