module Disk = Pager.Disk
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Journal = Transact.Journal
module Txn_mgr = Transact.Txn_mgr
module Tree = Btree.Tree
module Access = Btree.Access
module Record = Wal.Record

type t = {
  disk : Disk.t;
  faults : Pager.Fault.t;
  pool : Buffer_pool.t;
  log : Wal.Log.t;
  journal : Journal.t;
  locks : Lockmgr.Lock_mgr.t;
  mgr : Txn_mgr.t;
  alloc : Alloc.t;
  tree : Tree.t;
  access : Access.t;
  bus : Obs.Bus.t;
  health : Obs.Health.t;
  shard : int * int;
}

(* Observers (the benchmark probe) install hooks to see every store an
   experiment assembles internally.  Same composition contract as
   [Sched.Engine.add_create_hook]: ids, independent removal. *)
let assemble_hooks : (int * (t -> unit)) list ref = ref [] (* newest first *)
let next_hook_id = ref 0

let add_assemble_hook f =
  incr next_hook_id;
  let id = !next_hook_id in
  assemble_hooks := (id, f) :: !assemble_hooks;
  id

let remove_assemble_hook id =
  assemble_hooks := List.filter (fun (i, _) -> i <> id) !assemble_hooks

let wire_undo mgr tree access =
  Txn_mgr.set_logical_undo mgr (fun _txn action ->
      match action with
      | Record.Undo_insert { key } -> Tree.apply_delete tree key
      | Record.Undo_delete { key; payload } -> Tree.apply_insert tree ~key ~payload
      | Record.Undo_side op -> Access.run_side_undo access op
      | Record.Undo_phys _ ->
        (* Physical compensation is performed by the transaction manager
           itself; it never reaches the logical-undo hook. *)
        assert false)

let assemble ?faults ?(record_locking = false) ?(shard = (0, 1)) ~page_size ~leaf_pages
    ~capacity ~mk_tree () =
  let shard_i, shard_n = shard in
  if shard_n < 1 || shard_i < 0 || shard_i >= shard_n then
    invalid_arg "Store.assemble: shard index out of range";
  (* One event stream for the whole store: every component emits on it. *)
  let bus = Obs.Bus.create () in
  let faults = match faults with Some f -> f | None -> Pager.Fault.create () in
  (* Every page write and every log force goes through the one fault
     controller, so a simulated crash is a single authoritative event. *)
  let disk = Disk.create ~fault:faults ~page_size () in
  let pool = Buffer_pool.create ?capacity ~bus disk in
  let log = Wal.Log.create ~bus () in
  Wal.Log.set_fault log faults;
  let journal = Journal.create pool log in
  let locks = Lockmgr.Lock_mgr.create ~bus () in
  (* Shard i of n owns the owner-id residue class i+1 (mod n): ids minted by
     any shard never collide with any other shard's. *)
  let mgr = Txn_mgr.create ~first_id:(shard_i + 1) ~id_stride:shard_n journal locks in
  (* Tree-health tracking: every mutated page is enqueued; the refresher
     re-reads one page on demand and classifies it.  Subscribed before
     [mk_tree] so a bulk load's page writes are captured — no initial
     full-tree scan is ever needed. *)
  let health = Obs.Health.create () in
  Obs.Bus.subscribe bus
    [ Buffer_pool.dirty_topic; Alloc.topic; Reorg.Prot.topic ]
    (function
      | Buffer_pool.Dirtied pid -> Obs.Health.note_dirty health pid
      | Alloc.Allocated pid -> Obs.Health.note_alloc_event health `Alloc pid
      | Alloc.Released pid -> Obs.Health.note_alloc_event health `Free pid
      | Reorg.Unit_exec.Attempt_end (Some (Reorg.Unit_exec.Done _)) -> Obs.Health.note_unit health
      | Reorg.Prot.Switched -> Obs.Health.note_switch health
      | Reorg.Prot.Side_accept { backlog; _ } ->
        Obs.Health.side_event health ~size:backlog Obs.Health.Append
      | Reorg.Prot.Side_backlog { size; change } -> Obs.Health.side_event health ~size change
      | _ -> ());
  let usable = Btree.Layout.usable_bytes ~page_size:(Buffer_pool.page_size pool) in
  Obs.Health.set_refresher health (fun pid ->
      match Buffer_pool.get pool pid with
      | p ->
        if Btree.Leaf.is_leaf p then
          Some
            {
              Obs.Health.live = Btree.Leaf.live_bytes p;
              usable;
              next_pid = Btree.Leaf.next p;
              low_key = Btree.Leaf.low_mark p;
            }
        else None
      | exception _ ->
        (* Unreadable right now (e.g. a torn page awaiting recovery):
           treat as not-a-leaf; the next mutation re-enqueues it. *)
        None);
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages in
  Obs.Health.set_free_probe health (fun () -> Alloc.free_count alloc Alloc.Leaf);
  let tree = mk_tree ~journal ~alloc in
  let access = Access.create ~tree ~mgr ~record_locking () in
  wire_undo mgr tree access;
  let t =
    { disk; faults; pool; log; journal; locks; mgr; alloc; tree; access; bus; health;
      shard }
  in
  List.iter (fun (_, f) -> f t) (List.rev !assemble_hooks);
  t

let create ?faults ?(page_size = 512) ?(leaf_pages = 1024) ?capacity ?record_locking ?shard ()
    =
  let t =
    assemble ?faults ?record_locking ?shard ~page_size ~leaf_pages ~capacity
      ~mk_tree:(fun ~journal ~alloc -> Tree.create ~journal ~alloc ~meta_pid:0 ~tree_name:1 ())
      ()
  in
  (* The freshly formatted tree is durable, as after CREATE DATABASE. *)
  Buffer_pool.flush_all t.pool;
  Wal.Log.force_all t.log;
  t

let load ?faults ?(page_size = 512) ?(leaf_pages = 1024) ?capacity ?record_locking ?shard
    ~fill ?internal_fill records =
  assemble ?faults ?record_locking ?shard ~page_size ~leaf_pages ~capacity
    ~mk_tree:(fun ~journal ~alloc ->
      Btree.Bulk.load ~journal ~alloc ~meta_pid:0 ~tree_name:1 ~fill ?internal_fill records)
    ()

let register_obs t reg =
  Lockmgr.Lock_mgr.register_obs t.locks reg;
  Buffer_pool.register_obs t.pool reg;
  Wal.Log.register_obs t.log reg;
  Pager.Fault.register_obs t.faults reg;
  Obs.Health.register_obs t.health reg;
  Btree.Olc.register_obs (Btree.Tree.olc t.tree) reg

(* Everything volatile in ONE store dies; the fault controller is the
   caller's business (it may be shared by several stores). *)
let volatile_teardown t =
  Wal.Log.crash t.log;
  Buffer_pool.crash t.pool;
  Lockmgr.Lock_mgr.clear t.locks;
  Txn_mgr.clear_active t.mgr;
  Access.clear_on_base_update t.access;
  (* In-memory health knowledge may be ahead of the surviving disk image:
     re-examine everything lazily after recovery. *)
  Obs.Health.invalidate_all t.health;
  (* Page versions are volatile too: recovery replays arbitrary structure,
     so advance the epoch wholesale — any optimistic descent in flight
     across the crash must fail validation and fall back. *)
  Btree.Olc.invalidate_all (Btree.Tree.olc t.tree)

let crash_now ?flush_seed t =
  (* The plan (if any) is done: nothing must trip while we tear things
     down. *)
  Pager.Fault.disarm t.faults;
  (* Legacy partial-flush mode: when the machine is still alive, let a
     seeded random subset of dirty pages reach disk first — the arbitrary
     disk states a buffer manager can leave behind.  flush_page honours the
     WAL rule and careful-writing order. *)
  if not (Pager.Fault.crashed t.faults) then begin
    match flush_seed with
    | Some seed ->
      let rng = Util.Rng.create seed in
      List.iter
        (fun pid -> if Util.Rng.chance rng 0.5 then Buffer_pool.flush_page t.pool pid)
        (Buffer_pool.dirty_pages t.pool)
    | None -> ()
  end;
  (* The authoritative crash event... *)
  Pager.Fault.kill t.faults;
  volatile_teardown t;
  (* ...and the reboot: the next I/O is recovery's. *)
  Pager.Fault.revive t.faults

let flush_all t =
  Buffer_pool.flush_all t.pool;
  Wal.Log.force_all t.log

let payload_for k = Printf.sprintf "value-%08d" k
