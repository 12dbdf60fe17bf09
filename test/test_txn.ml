(* Transaction layer tests: journal logging, WAL rule end-to-end, commit /
   abort with logical undo, blocking lock client on the scheduler. *)

module Page = Pager.Page
module Disk = Pager.Disk
module Buffer_pool = Pager.Buffer_pool
module Log = Wal.Log
module Record = Wal.Record
module Journal = Transact.Journal
module Txn = Transact.Txn
module Txn_mgr = Transact.Txn_mgr
module Lock_client = Transact.Lock_client
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr
module Engine = Sched.Engine

let mk () =
  let disk = Disk.create ~initial_pages:16 ~fault:(Pager.Fault.create ()) ~page_size:256 () in
  let pool = Buffer_pool.create disk in
  let log = Log.create () in
  let journal = Journal.create pool log in
  let locks = Lock_mgr.create () in
  let mgr = Txn_mgr.create journal locks in
  (disk, pool, log, journal, locks, mgr)

let test_physical_logs_and_stamps () =
  let _, pool, log, journal, _, _ = mk () in
  Journal.physical journal ~page:3 ~off:16 ~len:4 (fun p -> Page.set_u32 p 16 77);
  let lsn = Log.head_lsn log in
  Alcotest.(check bool) "one record" true (lsn >= 1);
  (match Log.read log lsn with
  | Record.Update { page = 3; off = 16; before; after; _ } ->
    Alcotest.(check int) "len" 4 (String.length before);
    Alcotest.(check bool) "after differs" true (before <> after)
  | _ -> Alcotest.fail "expected Update");
  Alcotest.(check int64) "page stamped" (Int64.of_int lsn) (Page.lsn (Buffer_pool.get pool 3));
  Alcotest.(check bool) "dirty" true (Buffer_pool.is_dirty pool 3)

let test_physical_noop_not_logged () =
  let _, _, log, journal, _, _ = mk () in
  Journal.physical journal ~page:3 ~off:16 ~len:4 (fun _ -> ());
  Alcotest.(check int) "no record" 0 (Log.head_lsn log)

let test_wal_rule_forces_log () =
  let _, pool, log, journal, _, _ = mk () in
  Journal.physical journal ~page:3 ~off:16 ~len:4 (fun p -> Page.set_u32 p 16 1);
  Alcotest.(check int) "nothing stable yet" 0 (Log.flushed_lsn log);
  Buffer_pool.flush_page pool 3;
  Alcotest.(check int) "flush forced the log" (Log.head_lsn log) (Log.flushed_lsn log)

let test_commit_forces_and_releases () =
  let _, _, log, _, locks, mgr = mk () in
  let tx = Txn_mgr.begin_txn mgr in
  ignore (Lock_mgr.try_acquire locks ~owner:tx.Txn.id (Resource.Page 1) Mode.X);
  Txn_mgr.commit mgr tx;
  Alcotest.(check int) "commit durable" (Log.head_lsn log) (Log.flushed_lsn log);
  Alcotest.(check int) "locks gone" 0 (Lock_mgr.locked_count locks ~owner:tx.Txn.id);
  Alcotest.(check int) "no active txns" 0 (Txn_mgr.active_count mgr)

let test_abort_logical_undo () =
  let _, pool, log, journal, _, mgr = mk () in
  let undone = ref [] in
  Txn_mgr.set_logical_undo mgr (fun _ action -> undone := action :: !undone);
  let tx = Txn_mgr.begin_txn mgr in
  ignore (Journal.log_leaf_insert journal ~txn:tx ~page:5 ~key:10 ~payload:"a");
  ignore (Journal.log_leaf_delete journal ~txn:tx ~page:5 ~key:11 ~payload:"b");
  (* A structural sequence sealed as a nested top action must NOT be undone. *)
  Journal.with_nta journal ~txn:tx (fun () ->
      Journal.physical journal ~txn:tx ~page:6 ~off:32 ~len:2 (fun p -> Page.set_u16 p 32 7));
  (* An unsealed physical update must be reversed from its before-image. *)
  Journal.physical journal ~txn:tx ~page:7 ~off:32 ~len:2 (fun p -> Page.set_u16 p 32 9);
  Txn_mgr.abort mgr tx;
  (match !undone with
  | [ Record.Undo_insert { key = 10 }; Record.Undo_delete { key = 11; payload = "b" } ] -> ()
  | l -> Alcotest.failf "unexpected undo actions (%d)" (List.length l));
  (* Undo is newest-first: delete undone before insert. *)
  (match !undone with
  | [ _; Record.Undo_delete _ ] -> ()
  | _ -> Alcotest.fail "order");
  (* Sealed NTA survives; unsealed physical was rolled back. *)
  Alcotest.(check int) "sealed NTA kept" 7 (Page.get_u16 (Buffer_pool.get pool 6) 32);
  Alcotest.(check int) "unsealed physical reversed" 0 (Page.get_u16 (Buffer_pool.get pool 7) 32);
  (* CLRs (2 logical + 1 physical) and the abort record are in the log. *)
  let clrs = ref 0 and phys_clrs = ref 0 and aborts = ref 0 in
  Log.force_all log;
  Log.iter log (fun _ body ->
      match body with
      | Record.Clr { action = Record.Undo_phys _; _ } ->
        incr clrs;
        incr phys_clrs
      | Record.Clr _ -> incr clrs
      | Record.Txn_abort _ -> incr aborts
      | _ -> ());
  Alcotest.(check int) "three CLRs" 3 !clrs;
  Alcotest.(check int) "one physical CLR" 1 !phys_clrs;
  Alcotest.(check int) "abort logged" 1 !aborts

let test_undo_chain_respects_clrs () =
  (* A crashed rollback must not undo twice: undo_chain starting from a CLR
     jumps over already-undone records. *)
  let _, _, log, journal, _, mgr = mk () in
  let undone = ref [] in
  Txn_mgr.set_logical_undo mgr (fun _ a -> undone := a :: !undone);
  let tx = Txn_mgr.begin_txn mgr in
  let l1 = Journal.log_leaf_insert journal ~txn:tx ~page:5 ~key:1 ~payload:"x" in
  ignore (Journal.log_leaf_insert journal ~txn:tx ~page:5 ~key:2 ~payload:"y");
  (* Simulate a partial rollback: key 2 already compensated. *)
  let clr =
    Log.append log (Record.Clr { txn = tx.Txn.id; action = Undo_insert { key = 2 }; undo_next = l1 })
  in
  tx.Txn.last_lsn <- clr;
  Txn_mgr.undo_chain mgr tx ~last:tx.Txn.last_lsn;
  (match !undone with
  | [ Record.Undo_insert { key = 1 } ] -> ()
  | l -> Alcotest.failf "expected only key 1 undone, got %d actions" (List.length l))

let test_lock_client_blocking () =
  let _, _, _, _, locks, _ = mk () in
  let eng = Engine.create () in
  let t1 = Txn.make 1 and t2 = Txn.make 2 in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Lock_client.acquire locks ~txn:t1 (Resource.Page 1) Mode.X;
      order := "t1-got" :: !order;
      Engine.sleep 5;
      Lock_client.release locks ~txn:t1 (Resource.Page 1) Mode.X;
      order := "t1-released" :: !order);
  Engine.spawn eng (fun () ->
      Engine.yield ();
      Lock_client.acquire locks ~txn:t2 (Resource.Page 1) Mode.X;
      order := "t2-got" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "blocking order" [ "t1-got"; "t1-released"; "t2-got" ]
    (List.rev !order);
  Alcotest.(check bool) "blocked time recorded" true (t2.Txn.blocked_ticks > 0);
  Alcotest.(check int) "one wait" 1 t2.Txn.waits

let test_lock_client_instant () =
  let _, _, _, _, locks, _ = mk () in
  let eng = Engine.create () in
  let reorg = Txn.make 100 and reader = Txn.make 2 in
  let got_signal = ref false in
  Engine.spawn eng (fun () ->
      Lock_client.acquire locks ~txn:reorg (Resource.Page 1) Mode.R;
      Engine.sleep 5;
      Lock_client.release locks ~txn:reorg (Resource.Page 1) Mode.R);
  Engine.spawn eng (fun () ->
      Engine.yield ();
      Lock_client.instant locks ~txn:reader (Resource.Page 1) Mode.RS;
      got_signal := true;
      (* Instant: nothing is held afterwards. *)
      Alcotest.(check int) "nothing held" 0 (Lock_mgr.locked_count locks ~owner:reader.Txn.id));
  Engine.run eng;
  Alcotest.(check bool) "signalled after R release" true !got_signal

let test_lock_client_deadlock_raises () =
  let _, _, _, _, locks, _ = mk () in
  let eng = Engine.create () in
  let t1 = Txn.make 1 and t2 = Txn.make 2 in
  let caught = ref false in
  Engine.spawn eng (fun () ->
      Lock_client.acquire locks ~txn:t1 (Resource.Page 1) Mode.X;
      Engine.sleep 2;
      Lock_client.acquire locks ~txn:t1 (Resource.Page 2) Mode.X;
      Lock_client.release_all locks ~txn:t1);
  Engine.spawn eng (fun () ->
      Lock_client.acquire locks ~txn:t2 (Resource.Page 2) Mode.X;
      Engine.sleep 2;
      (try Lock_client.acquire locks ~txn:t2 (Resource.Page 1) Mode.X
       with Lock_client.Deadlock_victim ->
         caught := true;
         Lock_client.release_all locks ~txn:t2));
  Engine.run eng;
  Alcotest.(check bool) "victim raised" true !caught;
  Alcotest.(check int) "all done" 0 (Engine.live eng)

let () =
  Alcotest.run "transact"
    [
      ( "journal",
        [
          Alcotest.test_case "physical logs+stamps" `Quick test_physical_logs_and_stamps;
          Alcotest.test_case "noop not logged" `Quick test_physical_noop_not_logged;
          Alcotest.test_case "wal rule" `Quick test_wal_rule_forces_log;
        ] );
      ( "txn_mgr",
        [
          Alcotest.test_case "commit" `Quick test_commit_forces_and_releases;
          Alcotest.test_case "abort logical undo" `Quick test_abort_logical_undo;
          Alcotest.test_case "undo skips CLRed" `Quick test_undo_chain_respects_clrs;
        ] );
      ( "lock client",
        [
          Alcotest.test_case "blocking" `Quick test_lock_client_blocking;
          Alcotest.test_case "instant" `Quick test_lock_client_instant;
          Alcotest.test_case "deadlock raises" `Quick test_lock_client_deadlock_raises;
        ] );
    ]
