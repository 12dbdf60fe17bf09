module Store = Shard.Store

(* Re-exported record: [Db.t] IS one [Shard.Store.t], so every existing
   [db.Sim.Db.field] access keeps compiling while sharded assemblies build
   several stores from the same constructor. *)
type t = Store.t = {
  disk : Pager.Disk.t;
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
  health : Obs.Health.t;
  shard : int * int;
}

let assemble = Store.assemble
let create ?faults ?page_size ?leaf_pages ?capacity ?record_locking () =
  Store.create ?faults ?page_size ?leaf_pages ?capacity ?record_locking ()

let load ?faults ?page_size ?leaf_pages ?capacity ?record_locking ~fill ?internal_fill
    records =
  Store.load ?faults ?page_size ?leaf_pages ?capacity ?record_locking ~fill ?internal_fill
    records

let register_obs = Store.register_obs
let crash_now = Store.crash_now
let flush_all = Store.flush_all
let payload_for = Store.payload_for
