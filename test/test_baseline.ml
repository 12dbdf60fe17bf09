(* Tandem-style baseline tests: the comparator must itself be correct, its
   semantics must match what the paper attributes to [Smi90] (file-level
   lock, two blocks per transaction, rollback on crash, full-page logging),
   and its crash behaviour must roll the in-flight operation back. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Txn_mgr = Transact.Txn_mgr
module Lock_client = Transact.Lock_client
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Db = Sim.Db
module Tandem = Baseline.Tandem

let run_tandem db =
  let eng = Engine.create () in
  let stats = ref None in
  Engine.spawn eng (fun () -> stats := Some (Tandem.reorganize ~access:db.Db.access ~f2:0.9));
  Engine.run eng;
  Option.get !stats

let test_correctness_on_thinned () =
  let db, expected = Sim.Scenario.thinned ~seed:9 ~n:700 ~survive:0.3 () in
  let before = Tree.stats db.Db.tree in
  let s = run_tandem db in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check bool) "compacted" true (after.Tree.leaf_count < before.Tree.leaf_count);
  Alcotest.(check bool) "fill improved" true
    (after.Tree.avg_leaf_fill > before.Tree.avg_leaf_fill);
  Alcotest.(check bool) "did merges" true (s.Tandem.merges > 0)

let test_correctness_on_aged () =
  let db, expected = Sim.Scenario.aged ~seed:11 ~n:900 ~f1:0.3 () in
  let s = run_tandem db in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  (* Ordering pass leaves the chain contiguous. *)
  let lo, _ = Pager.Alloc.leaf_zone db.Db.alloc in
  List.iteri
    (fun i pid -> Alcotest.(check int) "contiguous" (lo + i) pid)
    (Tree.leaf_pids db.Db.tree);
  Alcotest.(check bool) "swaps or moves happened" true (s.Tandem.swaps + s.Tandem.moves > 0)

(* The ordering pass plans from the base-page leaf order, so its pool
   misses per operation stay a small constant on a tree larger than the
   pool, instead of a leaf-chain walk per operation. *)
let test_order_leaves_misses_per_op () =
  let db, expected = Sim.Scenario.aged ~seed:5 ~n:5_000 ~f1:0.3 () in
  let misses () = (Pager.Buffer_pool.stats db.Db.pool).Pager.Buffer_pool.s_misses in
  let stats = Tandem.create_stats () in
  let used = ref 0 in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Tandem.compact ~access:db.Db.access ~f2:0.9 stats;
      let before = misses () in
      Tandem.order_leaves ~access:db.Db.access stats;
      used := misses () - before);
  Engine.run eng;
  let ops = stats.Tandem.swaps + stats.Tandem.moves in
  Alcotest.(check bool) "more leaves than frames" true
    ((Tree.stats db.Db.tree).Tree.leaf_count > Pager.Buffer_pool.capacity db.Db.pool);
  Alcotest.(check bool) "ordering ran operations" true (ops > 100);
  Alcotest.(check bool)
    (Printf.sprintf "%d misses over %d operations <= 8 per operation" !used ops)
    true
    (!used <= 8 * ops);
  Btree.Invariant.check_consistent_with db.Db.tree ~expected

let test_file_lock_blocks_users () =
  (* While a block operation runs, even a reader is locked out — "[Smi90]
     prevents user transactions from accessing the entire file". *)
  let db, expected = Sim.Scenario.thinned ~seed:13 ~n:500 ~survive:0.3 () in
  ignore expected;
  let eng = Engine.create () in
  let blocked_total = ref 0 in
  let done_ = ref false in
  Engine.spawn eng (fun () ->
      Tandem.compact ~access:db.Db.access ~f2:0.9 (Tandem.create_stats ());
      done_ := true);
  Engine.spawn eng (fun () ->
      while not !done_ do
        let tx = Txn_mgr.fresh_owner db.Db.mgr in
        ignore (Btree.Access.read db.Db.access ~txn:tx 100);
        blocked_total := !blocked_total + tx.Transact.Txn.blocked_ticks;
        Txn_mgr.finish_read_only db.Db.mgr tx;
        Engine.yield ()
      done);
  Engine.run eng;
  Alcotest.(check bool)
    (Printf.sprintf "reader was blocked by the file lock (%d ticks)" !blocked_total)
    true (!blocked_total > 0)

let test_each_op_is_a_transaction () =
  let db, _ = Sim.Scenario.thinned ~seed:15 ~n:500 ~survive:0.3 () in
  let commits_before =
    let n = ref 0 in
    Wal.Log.force_all db.Db.log;
    Wal.Log.iter db.Db.log (fun _ b -> match b with Wal.Record.Txn_commit _ -> incr n | _ -> ());
    !n
  in
  let s = run_tandem db in
  Wal.Log.force_all db.Db.log;
  let commits_after =
    let n = ref 0 in
    Wal.Log.iter db.Db.log (fun _ b -> match b with Wal.Record.Txn_commit _ -> incr n | _ -> ());
    !n
  in
  Alcotest.(check int) "one commit per block operation" s.Tandem.ops
    (commits_after - commits_before)

let test_crash_rolls_back_in_flight_op () =
  (* Crash while Tandem works: restart must roll the torn operation back
     (physical undo of its unsealed Updates) and leave a consistent tree
     with all records present. *)
  List.iter
    (fun crash_at ->
      let db, expected = Sim.Scenario.aged ~seed:17 ~n:600 ~f1:0.3 () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (run_tandem db : Tandem.stats));
      (* run_tandem spawns its own engine; instead drive compact directly *)
      ignore eng;
      let eng = Engine.create () in
      let stats = Tandem.create_stats () in
      Engine.spawn eng (fun () ->
          Tandem.compact ~access:db.Db.access ~f2:0.9 stats;
          Tandem.order_leaves ~access:db.Db.access stats);
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:(crash_at * 7) db;
      let _ctx, outcome =
        Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.default ()
      in
      ignore outcome;
      Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Btree.Invariant.check_consistent_with db.Db.tree ~expected)
    [ 30; 70; 150; 250 ]

let test_lock_hold_accounting () =
  let db, _ = Sim.Scenario.thinned ~seed:19 ~n:400 ~survive:0.3 () in
  let s = run_tandem db in
  Alcotest.(check bool) "ops counted" true (s.Tandem.ops > 0);
  Alcotest.(check bool) "held the file lock for some time" true (s.Tandem.lock_hold_ticks > 0);
  Alcotest.(check bool) "logged full pages (bytes >> records)" true
    (s.Tandem.log_bytes > 100 * s.Tandem.ops)

let test_no_cross_parent_merge () =
  (* Merging the first child of the next base page would orphan part of its
     key range; the baseline must decline such merges. *)
  let db, expected = Sim.Scenario.aged ~seed:23 ~n:800 ~f1:0.45 () in
  let eng = Engine.create () in
  let stats = Tandem.create_stats () in
  Engine.spawn eng (fun () -> Tandem.compact ~access:db.Db.access ~f2:0.9 stats);
  Engine.run eng;
  (* Every key must still be findable by descent (the bug this guards
     against made keys reachable only via the chain). *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        (Printf.sprintf "descent finds %d" k)
        (Some v) (Tree.search db.Db.tree k))
    expected;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_concurrent_users_with_tandem () =
  let db, _ = Sim.Scenario.aged ~seed:29 ~n:600 ~f1:0.3 () in
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      ignore (Tandem.reorganize ~access:db.Db.access ~f2:0.9 : Tandem.stats);
      finished := true);
  let stats =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:5 ~users:4 ~ops_per_user:10_000
      ~key_space:600
      ~stop:(fun () -> !finished)
      ~mix:Workload.Mix.read_mostly ()
  in
  Engine.run eng;
  Alcotest.(check bool) "users made progress" true (stats.Workload.Mix.committed > 0);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

(* ---------------- offline rebuild ---------------- *)

let test_offline_rebuild () =
  let db, expected = Sim.Scenario.aged ~seed:31 ~n:800 ~f1:0.25 () in
  let before = Tree.stats db.Db.tree in
  let eng = Engine.create () in
  let stats = ref None in
  Engine.spawn eng (fun () ->
      stats := Some (Baseline.Offline.reorganize ~access:db.Db.access ~f2:0.9));
  Engine.run eng;
  let s = Option.get !stats in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check int) "all records" (List.length expected) s.Baseline.Offline.records;
  Alcotest.(check bool) "compacted hard" true
    (after.Tree.leaf_count * 3 < before.Tree.leaf_count);
  Alcotest.(check bool) "fill high" true (after.Tree.avg_leaf_fill > 0.75);
  (* Ascending disk order (fresh pages are taken smallest-first, so key
     order and disk order coincide; gaps remain where old pages still sat
     when the new ones were allocated). *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) (Printf.sprintf "ascending %d < %d" a b) true (a < b);
      ascending rest
    | _ -> ()
  in
  ascending (Tree.leaf_pids db.Db.tree)

let test_offline_blocks_everyone () =
  let db, _ = Sim.Scenario.aged ~seed:33 ~n:800 ~f1:0.25 () in
  let eng = Engine.create () in
  let done_ = ref false in
  let read_during = ref 0 in
  Engine.spawn eng (fun () ->
      ignore (Baseline.Offline.reorganize ~access:db.Db.access ~f2:0.9 : Baseline.Offline.stats);
      done_ := true);
  Engine.spawn eng (fun () ->
      (* This reader starts while the rebuild holds the tree X lock; it can
         only finish after. *)
      Engine.yield ();
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      ignore (Btree.Access.read db.Db.access ~txn:tx 100);
      if not !done_ then incr read_during;
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.run eng;
  Alcotest.(check int) "no read completed while offline" 0 !read_during

let () =
  Alcotest.run "baseline"
    [
      ( "correctness",
        [
          Alcotest.test_case "thinned tree" `Quick test_correctness_on_thinned;
          Alcotest.test_case "aged tree" `Quick test_correctness_on_aged;
          Alcotest.test_case "ordering misses per op" `Quick test_order_leaves_misses_per_op;
          Alcotest.test_case "no cross-parent merge" `Quick test_no_cross_parent_merge;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "file lock blocks users" `Quick test_file_lock_blocks_users;
          Alcotest.test_case "txn per operation" `Quick test_each_op_is_a_transaction;
          Alcotest.test_case "lock-hold + log accounting" `Quick test_lock_hold_accounting;
          Alcotest.test_case "concurrent users" `Quick test_concurrent_users_with_tandem;
        ] );
      ( "crash",
        [ Alcotest.test_case "rollback of torn op" `Quick test_crash_rolls_back_in_flight_op ]
      );
      ( "offline rebuild",
        [
          Alcotest.test_case "correctness" `Quick test_offline_rebuild;
          Alcotest.test_case "blocks everyone" `Quick test_offline_blocks_everyone;
        ] );
    ]
