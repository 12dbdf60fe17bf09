(* End-to-end tests of the three-pass online reorganizer. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Leaf = Btree.Leaf
module Invariant = Btree.Invariant
module Access = Btree.Access
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db
module Scenario = Sim.Scenario

let payload = Db.payload_for

(* A sparse tree: load keys 0,2,..,2(n-1) tightly, then transactionally
   delete all but a [survive] fraction.  Deletion goes through real
   transactions so free-at-empty runs and the tree fragments naturally. *)
let sparse_db ?(page_size = 512) ?(n = 800) ?(survive = 0.34) ?(seed = 11) () =
  let rng = Util.Rng.create seed in
  let scenario = Workload.Sparse.uniform_thinning ~rng ~n ~survive in
  let db = Db.load ~page_size ~fill:0.95 scenario.Workload.Sparse.initial in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  List.iter (fun k -> ignore (Tree.delete db.Db.tree ~txn:tx k)) scenario.Workload.Sparse.deletes;
  Txn_mgr.commit db.Db.mgr tx;
  let expected =
    List.filter
      (fun (k, _) -> not (List.mem k scenario.Workload.Sparse.deletes))
      scenario.Workload.Sparse.initial
  in
  (db, expected)

let check db = Invariant.check ~alloc:db.Db.alloc db.Db.tree

(* ------------------------------------------------------------------ *)

let test_pass1_compacts () =
  let db, expected = sparse_db () in
  let before = Tree.stats db.Db.tree in
  let config = { Reorg.Config.default with swap_pass = false; shrink_pass = false } in
  let { Scenario.report = r; _ } = Scenario.run_reorg { Scenario.default with config } db in
  check db;
  Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check bool) "ran units" true (r.Reorg.Driver.pass1_units > 0);
  Alcotest.(check bool) "fewer leaves" true (after.Tree.leaf_count < before.Tree.leaf_count);
  Alcotest.(check bool)
    (Printf.sprintf "fill improved %.2f -> %.2f" before.Tree.avg_leaf_fill after.Tree.avg_leaf_fill)
    true
    (after.Tree.avg_leaf_fill > before.Tree.avg_leaf_fill +. 0.2)

let test_full_driver () =
  let db, expected = sparse_db () in
  let before = Tree.stats db.Db.tree in
  let { Scenario.ctx; report = r; _ } = Scenario.run_reorg Scenario.default db in
  check db;
  Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check bool) "switched" true r.Reorg.Driver.switched;
  Alcotest.(check bool) "height no worse" true (after.Tree.height <= before.Tree.height);
  (* Pass 2 must leave the leaves contiguous in key order. *)
  Alcotest.(check int) "leaves in disk order" 0 (Reorg.Pass2.out_of_order ctx);
  let leaf_lo, _ = Pager.Alloc.leaf_zone db.Db.alloc in
  let pids = Tree.leaf_pids db.Db.tree in
  List.iteri
    (fun i pid -> Alcotest.(check int) (Printf.sprintf "leaf %d placed" i) (leaf_lo + i) pid)
    pids

let test_shrink_reduces_height () =
  (* A very sparse, very tall tree (tiny pages) must lose a level. *)
  let db, expected = sparse_db ~page_size:256 ~n:4000 ~survive:0.10 ~seed:3 () in
  let before = Tree.stats db.Db.tree in
  let { Scenario.report = r; _ } = Scenario.run_reorg Scenario.default db in
  check db;
  Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check bool)
    (Printf.sprintf "height %d -> %d" before.Tree.height after.Tree.height)
    true
    (after.Tree.height < before.Tree.height);
  Alcotest.(check bool) "switched" true r.Reorg.Driver.switched

let test_heuristic_reduces_swaps () =
  (* §6.1 / [ZS95]: on an aged file (sparse at f1, leaves mildly out of
     disk order, freed pages visible), choosing the empty page with the
     (L, C) window yields far fewer pass-2 swaps than grabbing the first
     free page anywhere. *)
  let swaps_with heuristic =
    let records = List.init 1200 (fun i -> (2 * i, payload (2 * i))) in
    let db = Db.load ~page_size:512 ~leaf_pages:2048 ~fill:0.25 records in
    let rng = Util.Rng.create 31 in
    Workload.Scramble.spread_leaves db.Db.tree rng ~span_factor:1.4;
    let config =
      { Reorg.Config.default with heuristic; careful_writing = false; shrink_pass = false }
    in
    let { Scenario.report = r; _ } = Scenario.run_reorg { Scenario.default with config } db in
    check db;
    Invariant.check_consistent_with db.Db.tree ~expected:records;
    r.Reorg.Driver.swaps
  in
  let paper = swaps_with Reorg.Config.Paper_heuristic in
  let naive = swaps_with Reorg.Config.First_free in
  Alcotest.(check bool)
    (Printf.sprintf "paper heuristic swaps %d << first-free swaps %d" paper naive)
    true
    (2 * paper < naive)

let test_careful_writing_smaller_log () =
  let log_bytes careful =
    let db, _ = sparse_db ~seed:5 () in
    let config = { Reorg.Config.default with careful_writing = careful; shrink_pass = false } in
    let { Scenario.ctx; _ } = Scenario.run_reorg { Scenario.default with config } db in
    check db;
    (Reorg.Metrics.log_bytes ctx.Reorg.Ctx.metrics)
  in
  let careful = log_bytes true in
  let full = log_bytes false in
  Alcotest.(check bool)
    (Printf.sprintf "careful %d < full %d" careful full)
    true
    (careful * 2 < full)

let test_reorg_with_concurrent_readers () =
  let db, expected = sparse_db () in
  let live_keys = Array.of_list (List.map fst expected) in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let rng = Util.Rng.create 99 in
  let reads = ref 0 and wrong = ref 0 in
  let report = ref None in
  Engine.spawn eng (fun () -> report := Some (Reorg.Driver.run ctx));
  for _ = 1 to 8 do
    Engine.spawn eng (fun () ->
        for _ = 1 to 60 do
          let tx = Txn_mgr.fresh_owner db.Db.mgr in
          let k = Util.Rng.choose rng live_keys in
          (match Access.read db.Db.access ~txn:tx k with
          | Some v when v = payload k -> incr reads
          | Some _ | None -> incr wrong);
          Txn_mgr.finish_read_only db.Db.mgr tx;
          Engine.sleep 1
        done)
  done;
  Engine.run eng;
  Alcotest.(check bool) "reorg finished" true (!report <> None);
  Alcotest.(check int) "no wrong reads" 0 !wrong;
  Alcotest.(check int) "all reads done" 480 !reads;
  check db;
  Invariant.check_consistent_with db.Db.tree ~expected

let test_reorg_with_concurrent_updaters () =
  let db, expected = sparse_db ~n:600 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let model = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace model k v) expected;
  let report = ref None in
  Engine.spawn eng (fun () -> report := Some (Reorg.Driver.run ctx));
  (* Updaters insert fresh odd keys and delete existing ones, committing or
     aborting on deadlock. *)
  for w = 0 to 3 do
    Engine.spawn eng (fun () ->
        let rng = Util.Rng.create (1000 + w) in
        for i = 1 to 40 do
          let tx = Txn_mgr.begin_txn db.Db.mgr in
          (try
             if Util.Rng.bool rng then begin
               let k = (2 * ((w * 1000) + i)) + 1 in
               Access.insert db.Db.access ~txn:tx ~key:k ~payload:(payload k);
               Txn_mgr.commit db.Db.mgr tx;
               Hashtbl.replace model k (payload k)
             end
             else begin
               let k = 2 * Util.Rng.int rng 600 in
               let deleted = Access.delete db.Db.access ~txn:tx k in
               Txn_mgr.commit db.Db.mgr tx;
               if deleted <> None then Hashtbl.remove model k
             end
           with
          | Transact.Lock_client.Deadlock_victim -> Txn_mgr.abort db.Db.mgr tx
          | Tree.Duplicate_key _ -> Txn_mgr.abort db.Db.mgr tx);
          Engine.sleep 1
        done)
  done;
  Engine.run eng;
  Alcotest.(check bool) "reorg finished" true (!report <> None);
  check db;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let test_reader_blocked_by_rx_gives_up () =
  (* Direct protocol check of the locked reader: a read that meets a unit's
     RX on its leaf gives up (instant RS), waits the unit out and then
     succeeds; counted in Txn.gave_up. *)
  let db, expected = sparse_db ~n:400 () in
  Access.set_olc db.Db.access false;
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let gave_up = ref 0 in
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  for w = 0 to 5 do
    Engine.spawn eng (fun () ->
        let rng = Util.Rng.create (77 + w) in
        for _ = 1 to 80 do
          let tx = Txn_mgr.fresh_owner db.Db.mgr in
          let k, v = List.nth expected (Util.Rng.int rng (List.length expected)) in
          Alcotest.(check (option string)) "read value" (Some v)
            (Access.read db.Db.access ~txn:tx k);
          Txn_mgr.finish_read_only db.Db.mgr tx;
          gave_up := !gave_up + tx.Transact.Txn.gave_up
        done)
  done;
  Engine.run eng;
  (* Across 480 reads against the running reorganizer, some meet RX. *)
  Alcotest.(check bool)
    (Printf.sprintf "some reads gave up and retried (%d)" !gave_up)
    true (!gave_up > 0);
  check db

let test_tandem_baseline () =
  let db, expected = sparse_db () in
  let before = Tree.stats db.Db.tree in
  let eng = Engine.create () in
  let stats = ref None in
  Engine.spawn eng (fun () ->
      stats := Some (Baseline.Tandem.reorganize ~access:db.Db.access ~f2:0.9));
  Engine.run eng;
  let s = Option.get !stats in
  check db;
  Invariant.check_consistent_with db.Db.tree ~expected;
  let after = Tree.stats db.Db.tree in
  Alcotest.(check bool) "merged" true (s.Baseline.Tandem.merges > 0);
  Alcotest.(check bool) "fewer leaves" true (after.Tree.leaf_count < before.Tree.leaf_count);
  (* Two blocks per transaction: at least one op per merge/swap/move. *)
  Alcotest.(check int) "ops = merges+swaps+moves"
    (s.Baseline.Tandem.merges + s.Baseline.Tandem.swaps + s.Baseline.Tandem.moves)
    s.Baseline.Tandem.ops;
  (* The leaves end up ordered too. *)
  let leaf_lo, _ = Pager.Alloc.leaf_zone db.Db.alloc in
  List.iteri
    (fun i pid -> Alcotest.(check int) "placed" (leaf_lo + i) pid)
    (Tree.leaf_pids db.Db.tree)

let test_lambda_switch () =
  (* §7.4 λ-tree variant: no forced aborts, side file released instantly,
     old levels reclaimed in the background; everything stays consistent
     under concurrent split-heavy updaters. *)
  let db, _ = sparse_db ~n:600 () in
  let config = { Reorg.Config.default with lambda_switch = true; scan_pacing = 6 } in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config () in
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      let r = Reorg.Driver.run ctx in
      finished := true;
      Alcotest.(check bool) "switched" true r.Reorg.Driver.switched);
  let model = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace model k v)
    (Btree.Invariant.contents db.Db.tree);
  for w = 0 to 3 do
    Engine.spawn eng (fun () ->
        let rng = Util.Rng.create (31 + w) in
        for i = 1 to 60 do
          let tx = Txn_mgr.begin_txn db.Db.mgr in
          (try
             let k = (2 * ((w * 600) + i)) + 1 in
             Btree.Access.insert db.Db.access ~txn:tx ~key:k
               ~payload:(String.make 20 'z');
             Txn_mgr.commit db.Db.mgr tx;
             Hashtbl.replace model k (String.make 20 'z')
           with
          | Transact.Lock_client.Deadlock_victim | Tree.Duplicate_key _ ->
            Txn_mgr.abort db.Db.mgr tx);
          ignore (Util.Rng.int rng 2);
          Engine.sleep 1
        done)
  done;
  Engine.run eng;
  Alcotest.(check bool) "no forced aborts in lambda mode" true
    ((Reorg.Metrics.forced_aborts ctx.Reorg.Ctx.metrics) = 0);
  Alcotest.(check bool) "reorg bit cleared after background drain" false
    (Tree.reorg_bit db.Db.tree);
  check db;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let test_parallel_pass1 () =
  (* Future-work extension: range-partitioned parallel compaction must be
     exactly as correct as the sequential pass. *)
  List.iter
    (fun workers ->
      let db, expected = sparse_db ~n:800 ~seed:(workers * 3) () in
      let before = Tree.stats db.Db.tree in
      let { Scenario.report = r; _ } =
        Scenario.run_reorg { Scenario.default with pass1_workers = workers } db
      in
      check db;
      Invariant.check_consistent_with db.Db.tree ~expected;
      let after = Tree.stats db.Db.tree in
      Alcotest.(check bool)
        (Printf.sprintf "workers=%d compacted (%d -> %d leaves)" workers
           before.Tree.leaf_count after.Tree.leaf_count)
        true
        (after.Tree.leaf_count < before.Tree.leaf_count);
      Alcotest.(check bool) "switched" true r.Reorg.Driver.switched;
      Alcotest.(check bool) "fill improved" true
        (after.Tree.avg_leaf_fill > before.Tree.avg_leaf_fill +. 0.2))
    [ 2; 3; 5 ]

let test_parallel_with_users_and_pacing () =
  let db, _ = sparse_db ~n:800 () in
  let config = { Reorg.Config.default with io_pacing = 3 } in
  let { Scenario.users = stats; _ } =
    Scenario.run_reorg
      { Scenario.default with config; pass1_workers = 4; users = 6; user_key_space = Some 800;
        seed = 9 }
      db
  in
  Alcotest.(check bool) "users progressed" true (stats.Workload.Mix.committed > 0);
  check db

let test_parallel_crash_recovery () =
  (* Crash while several workers have units in flight: forward recovery must
     finish every interrupted unit and a rescan completes the job. *)
  List.iter
    (fun crash_at ->
      let db, expected = sparse_db ~n:800 ~seed:(crash_at + 2) () in
      let config = { Reorg.Config.default with io_pacing = 2 } in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ~pass1_workers:4 ctx));
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:(crash_at * 3) db;
      let ctx2, outcome =
        Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.default ()
      in
      let eng2 = Engine.create () in
      Engine.spawn eng2 (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
      Engine.run eng2;
      (try
         check db;
         Invariant.check_consistent_with db.Db.tree ~expected
       with Invariant.Violation m -> Alcotest.failf "parallel crash@%d: %s" crash_at m))
    [ 15; 40; 90; 200 ]

(* ------------------------------------------------------------------ *)
(* Leaf order from the base pages                                      *)
(* ------------------------------------------------------------------ *)

module Leaf_order = Btree.Leaf_order

let in_engine f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

(* Out-of-order count from the leaf chain, the reference walk. *)
let chain_out_of_order db =
  let lo, _ = Pager.Alloc.leaf_zone db.Db.alloc in
  let n = ref 0 in
  List.iteri (fun i pid -> if pid <> lo + i then incr n) (Tree.leaf_pids db.Db.tree);
  !n

let check_order_is_chain label db =
  Alcotest.(check (list int)) label (Tree.leaf_pids db.Db.tree)
    (Leaf_order.leaves (Leaf_order.create db.Db.tree))

let test_leaf_order_is_chain_order () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, db) ->
          let label stage = Printf.sprintf "%s seed %d %s" name seed stage in
          check_order_is_chain (label "initial") db;
          let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
          ignore (in_engine (fun () -> Reorg.Pass1.run ctx) : int);
          check_order_is_chain (label "after pass 1") db;
          Alcotest.(check int) (label "out of order after pass 1") (chain_out_of_order db)
            (Reorg.Pass2.out_of_order ctx);
          ignore (in_engine (fun () -> Reorg.Pass2.run ctx) : int * int);
          check_order_is_chain (label "after pass 2") db;
          Alcotest.(check int) (label "out of order after pass 2") (chain_out_of_order db)
            (Reorg.Pass2.out_of_order ctx);
          check db)
        [
          ("aged", fst (Sim.Scenario.aged ~seed ~n:1500 ~f1:0.3 ()));
          ("thinned", fst (Sim.Scenario.thinned ~seed ~n:1500 ~survive:0.3 ()));
          ("purged", fst (Sim.Scenario.purged ~seed ~n:1500 ~ranges:4 ~width:0.1 ()));
        ])
    [ 1; 2; 3 ]

(* Writers split and empty leaves while pass 2 plans from its cursor. *)
let test_leaf_order_with_writers () =
  let db, _ = Sim.Scenario.aged ~seed:4 ~n:2000 ~f1:0.3 () in
  let { Scenario.ctx; users; _ } =
    Scenario.run_reorg
      { Scenario.default with users = 4; user_mix = Workload.Mix.update_heavy; seed = 4 }
      db
  in
  Alcotest.(check bool) "users inserted and deleted" true
    (users.Workload.Mix.inserts > 0 && users.Workload.Mix.deletes > 0);
  check db;
  check_order_is_chain "order after the run" db;
  Alcotest.(check int) "out of order" (chain_out_of_order db) (Reorg.Pass2.out_of_order ctx)

(* Pass 2's planning cost is a count, not a time: pool misses per unit stay
   a small constant instead of growing with the number of leaves. *)
let test_pass2_misses_per_unit () =
  let db, _ = Sim.Scenario.aged ~seed:5 ~n:10_000 ~f1:0.3 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let misses () = (Pager.Buffer_pool.stats db.Db.pool).Pager.Buffer_pool.s_misses in
  let swaps, moves, used =
    in_engine (fun () ->
        ignore (Reorg.Pass1.run ctx : int);
        let before = misses () in
        let swaps, moves = Reorg.Pass2.run ctx in
        (swaps, moves, misses () - before))
  in
  let units = swaps + moves in
  Alcotest.(check bool) "pass 2 ran units" true (units > 100);
  Alcotest.(check bool)
    (Printf.sprintf "%d misses over %d units <= 8 per unit" used units)
    true
    (used <= 8 * units);
  Alcotest.(check int) "in order" 0 (Reorg.Pass2.out_of_order ctx)

let () =
  Alcotest.run "reorg"
    [
      ( "passes",
        [
          Alcotest.test_case "pass1 compacts" `Quick test_pass1_compacts;
          Alcotest.test_case "full driver" `Quick test_full_driver;
          Alcotest.test_case "shrink reduces height" `Quick test_shrink_reduces_height;
        ] );
      ( "design choices",
        [
          Alcotest.test_case "heuristic reduces swaps" `Quick test_heuristic_reduces_swaps;
          Alcotest.test_case "careful writing shrinks log" `Quick test_careful_writing_smaller_log;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent readers" `Quick test_reorg_with_concurrent_readers;
          Alcotest.test_case "concurrent updaters" `Quick test_reorg_with_concurrent_updaters;
          Alcotest.test_case "reader give-up protocol" `Quick test_reader_blocked_by_rx_gives_up;
          Alcotest.test_case "lambda switch" `Quick test_lambda_switch;
        ] );
      ( "leaf order",
        [
          Alcotest.test_case "base pages = leaf chain" `Quick test_leaf_order_is_chain_order;
          Alcotest.test_case "with writers" `Quick test_leaf_order_with_writers;
          Alcotest.test_case "pass 2 misses per unit" `Quick test_pass2_misses_per_unit;
        ] );
      ( "baseline",
        [ Alcotest.test_case "tandem reorganize" `Quick test_tandem_baseline ] );
      ( "parallel (future work)",
        [
          Alcotest.test_case "parallel pass 1" `Quick test_parallel_pass1;
          Alcotest.test_case "parallel + users" `Quick test_parallel_with_users_and_pacing;
          Alcotest.test_case "parallel crash recovery" `Quick test_parallel_crash_recovery;
        ] );
    ]
