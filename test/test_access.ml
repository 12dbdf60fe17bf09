(* Access-layer protocol tests (§4.1.2 / §4.1.3): lock footprints of the
   reader and updater protocols, the RX give-up rule, structure-modifying
   restarts, and the base-update hook behind the reorganization bit. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Leaf = Btree.Leaf
module Access = Btree.Access
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr
module Lock_client = Transact.Lock_client
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db

let payload = Db.payload_for

let mk ?(n = 600) () =
  let db = Db.create () in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to n - 1 do
    Tree.insert db.Db.tree ~txn:tx ~key:(2 * k) ~payload:(payload (2 * k)) ()
  done;
  Txn_mgr.commit db.Db.mgr tx;
  db

let run1 f =
  let eng = Engine.create () in
  Engine.spawn eng f;
  Engine.run eng;
  Alcotest.(check int) "process finished" 0 (Engine.live eng)

let test_reader_lock_footprint () =
  let db = mk () in
  (* The locked protocol's own footprint; the optimistic default takes no
     lock at all. *)
  Access.set_olc db.Db.access false;
  run1 (fun () ->
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      let v = Access.read db.Db.access ~txn:tx 100 in
      Alcotest.(check (option string)) "value" (Some (payload 100)) v;
      (* After the read: IS on the tree lock + S on exactly one leaf. *)
      let held = Lock_mgr.held_resources db.Db.locks ~owner:tx.Transact.Txn.id in
      let tree_locks, page_locks =
        List.partition (fun (r, _) -> match r with Resource.Tree _ -> true | _ -> false) held
      in
      Alcotest.(check int) "one tree lock" 1 (List.length tree_locks);
      Alcotest.(check int) "one leaf lock" 1 (List.length page_locks);
      (match page_locks with
      | [ (Resource.Page pid, [ Mode.S ]) ] ->
        Alcotest.(check bool) "it is the leaf holding the key" true
          (Leaf.mem (Tree.page db.Db.tree pid) 100)
      | _ -> Alcotest.fail "expected a single S leaf lock");
      Txn_mgr.finish_read_only db.Db.mgr tx;
      Alcotest.(check int) "all released" 0
        (Lock_mgr.locked_count db.Db.locks ~owner:tx.Transact.Txn.id))

let test_updater_lock_footprint () =
  let db = mk () in
  run1 (fun () ->
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      (* A non-structural insert: X on the leaf only (plus IX tree). *)
      Access.insert db.Db.access ~txn:tx ~key:101 ~payload:"x";
      let held = Lock_mgr.held_resources db.Db.locks ~owner:tx.Transact.Txn.id in
      let xs =
        List.filter
          (fun (r, ms) ->
            match r with Resource.Page _ -> List.mem Mode.X ms | _ -> false)
          held
      in
      Alcotest.(check int) "one X page lock" 1 (List.length xs);
      Txn_mgr.commit db.Db.mgr tx)

let test_reader_gives_up_on_rx () =
  let db = mk () in
  let reorg = Txn_mgr.fresh_owner db.Db.mgr in
  Lock_mgr.register_reorganizer db.Db.locks reorg.Transact.Txn.id;
  let leaf = Tree.find_leaf db.Db.tree 100 in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 100) in
  let order = ref [] in
  let eng = Engine.create () in
  (* "Reorganizer": R on base, RX on the leaf, hold for a while. *)
  Engine.spawn eng (fun () ->
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page base) Mode.R;
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page leaf) Mode.RX;
      order := "rx-held" :: !order;
      Engine.sleep 10;
      Lock_client.release_all db.Db.locks ~txn:reorg;
      order := "rx-released" :: !order);
  (* Reader arrives while the RX is held: must give up, wait via instant RS,
     and still succeed afterwards. *)
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      let v = Access.read db.Db.access ~txn:tx 100 in
      order := "read-done" :: !order;
      Alcotest.(check (option string)) "correct value" (Some (payload 100)) v;
      Alcotest.(check bool) "reader gave up at least once" true
        (tx.Transact.Txn.gave_up >= 1);
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.run eng;
  Alcotest.(check (list string)) "reader finished after the reorganizer"
    [ "rx-held"; "rx-released"; "read-done" ]
    (List.rev !order)

let test_updater_gives_up_on_rx () =
  let db = mk () in
  let reorg = Txn_mgr.fresh_owner db.Db.mgr in
  Lock_mgr.register_reorganizer db.Db.locks reorg.Transact.Txn.id;
  let leaf = Tree.find_leaf db.Db.tree 100 in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 100) in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page base) Mode.R;
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page leaf) Mode.RX;
      Engine.sleep 10;
      Lock_client.release_all db.Db.locks ~txn:reorg);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      Access.insert db.Db.access ~txn:tx ~key:101 ~payload:"x";
      Alcotest.(check bool) "updater gave up" true (tx.Transact.Txn.gave_up >= 1);
      Txn_mgr.commit db.Db.mgr tx);
  Engine.run eng;
  Alcotest.(check (option string)) "insert landed" (Some "x") (Tree.search db.Db.tree 101)

let test_range_read_during_rx () =
  let db = mk () in
  let reorg = Txn_mgr.fresh_owner db.Db.mgr in
  Lock_mgr.register_reorganizer db.Db.locks reorg.Transact.Txn.id;
  (* RX a leaf in the middle of the scanned range. *)
  let leaf = Tree.find_leaf db.Db.tree 400 in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 400) in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page base) Mode.R;
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page leaf) Mode.RX;
      Engine.sleep 8;
      Lock_client.release_all db.Db.locks ~txn:reorg);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      let rs = Access.range_read db.Db.access ~txn:tx ~lo:300 ~hi:500 in
      let expected = List.init 101 (fun i -> 300 + (2 * i)) in
      Alcotest.(check (list int)) "full range despite RX" expected
        (List.map (fun r -> r.Leaf.key) rs);
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.run eng

let test_structure_restart_releases_locks () =
  let db = mk () in
  run1 (fun () ->
      (* Fill one leaf until a split is forced; afterwards no internal X
         locks may remain (only the leaf lock is kept to txn end). *)
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      let k = ref 1001 in
      let split_done = ref false in
      while not !split_done do
        let before = (Tree.stats db.Db.tree).Tree.leaf_count in
        Access.insert db.Db.access ~txn:tx ~key:!k ~payload:(String.make 30 'x');
        k := !k + 2;
        if (Tree.stats db.Db.tree).Tree.leaf_count > before then split_done := true
      done;
      let held = Lock_mgr.held_resources db.Db.locks ~owner:tx.Transact.Txn.id in
      List.iter
        (fun (r, ms) ->
          match r with
          | Resource.Page pid when List.mem Mode.X ms ->
            Alcotest.(check bool)
              (Printf.sprintf "X lock only on leaves (page %d)" pid)
              true
              (Leaf.is_leaf (Tree.page db.Db.tree pid))
          | _ -> ())
        held;
      Txn_mgr.commit db.Db.mgr tx);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_base_update_hook_fires_only_with_bit () =
  let db = mk () in
  let hits = ref 0 in
  Access.set_on_base_update db.Db.access (fun _ _ -> incr hits);
  let force_split tx start =
    let k = ref start in
    let before = (Tree.stats db.Db.tree).Tree.leaf_count in
    while (Tree.stats db.Db.tree).Tree.leaf_count = before do
      Access.insert db.Db.access ~txn:tx ~key:!k ~payload:(String.make 30 'y');
      k := !k + 2
    done
  in
  run1 (fun () ->
      (* Bit off: hook must not fire. *)
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      force_split tx 2001;
      Txn_mgr.commit db.Db.mgr tx;
      Alcotest.(check int) "no hook without bit" 0 !hits;
      (* Bit on: hook fires with the inserted entry. *)
      Tree.set_reorg_bit db.Db.tree true;
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      force_split tx 4001;
      Txn_mgr.commit db.Db.mgr tx;
      Alcotest.(check bool) "hook fired with bit" true (!hits > 0))

let test_abort_under_protocols () =
  let db = mk () in
  run1 (fun () ->
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      Access.insert db.Db.access ~txn:tx ~key:9001 ~payload:"boo";
      ignore (Access.delete db.Db.access ~txn:tx 100);
      ignore (Access.update db.Db.access ~txn:tx ~key:102 ~payload:"changed");
      Txn_mgr.abort db.Db.mgr tx;
      Alcotest.(check (option string)) "insert rolled back" None (Tree.search db.Db.tree 9001);
      Alcotest.(check (option string)) "delete rolled back" (Some (payload 100))
        (Tree.search db.Db.tree 100);
      Alcotest.(check (option string)) "update rolled back" (Some (payload 102))
        (Tree.search db.Db.tree 102));
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_many_random_interleavings () =
  (* Randomized-scheduler stress: readers + updaters + a fake reorganizer
     taking RX locks; data must stay consistent for every seed. *)
  List.iter
    (fun seed ->
      let db = mk ~n:300 () in
      let model = Hashtbl.create 64 in
      for k = 0 to 299 do
        Hashtbl.replace model (2 * k) (payload (2 * k))
      done;
      let eng = Engine.create ~seed ~random:true () in
      let reorg = Txn_mgr.fresh_owner db.Db.mgr in
      Lock_mgr.register_reorganizer db.Db.locks reorg.Transact.Txn.id;
      Engine.spawn eng (fun () ->
          let rng = Util.Rng.create seed in
          for _ = 1 to 10 do
            let key = 2 * Util.Rng.int rng 300 in
            match Tree.parent_of_leaf db.Db.tree key with
            | Some base -> begin
              let leaf = Tree.find_leaf db.Db.tree key in
              try
                Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page base) Mode.R;
                Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page leaf) Mode.RX;
                Engine.sleep 3;
                Lock_client.release_all db.Db.locks ~txn:reorg
              with Lock_client.Deadlock_victim ->
                Lock_client.release_all db.Db.locks ~txn:reorg
            end
            | None -> ()
          done);
      for w = 0 to 3 do
        Engine.spawn eng (fun () ->
            let rng = Util.Rng.create (seed + w + 1) in
            for i = 1 to 25 do
              let tx = Txn_mgr.begin_txn db.Db.mgr in
              try
                if Util.Rng.bool rng then begin
                  let k = (2 * ((w * 500) + i)) + 1 in
                  Access.insert db.Db.access ~txn:tx ~key:k ~payload:(payload k);
                  Txn_mgr.commit db.Db.mgr tx;
                  Hashtbl.replace model k (payload k)
                end
                else begin
                  let k = 2 * Util.Rng.int rng 300 in
                  let r = Access.delete db.Db.access ~txn:tx k in
                  Txn_mgr.commit db.Db.mgr tx;
                  if r <> None then Hashtbl.remove model k
                end
              with Lock_client.Deadlock_victim -> Txn_mgr.abort db.Db.mgr tx
            done)
      done;
      Engine.run eng;
      Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Btree.Invariant.check_consistent_with db.Db.tree
        ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ---------------- record-level locking (§4.1.2's IS/IX option) -------- *)

let test_record_locking_allows_same_leaf () =
  let db = Db.create ~record_locking:true () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let t1 = Txn_mgr.begin_txn db.Db.mgr in
      for k = 0 to 19 do
        Access.insert db.Db.access ~txn:t1 ~key:(2 * k) ~payload:(payload (2 * k))
      done;
      Txn_mgr.commit db.Db.mgr t1);
  Engine.run eng;
  let eng = Engine.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  let t2 = Txn_mgr.begin_txn db.Db.mgr in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Access.insert db.Db.access ~txn:t1 ~key:101 ~payload:"a";
      order := "t1-inserted" :: !order;
      Engine.sleep 10;
      Txn_mgr.commit db.Db.mgr t1;
      order := "t1-committed" :: !order);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      (* Same leaf, different key: IX + IX are compatible. *)
      Access.insert db.Db.access ~txn:t2 ~key:103 ~payload:"b";
      order := "t2-inserted" :: !order;
      Txn_mgr.commit db.Db.mgr t2);
  Engine.run eng;
  Alcotest.(check (list string)) "t2 did not wait for t1's commit"
    [ "t1-inserted"; "t2-inserted"; "t1-committed" ]
    (List.rev !order);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_page_locking_serializes_same_leaf () =
  let db = Db.create () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let t1 = Txn_mgr.begin_txn db.Db.mgr in
      for k = 0 to 19 do
        Access.insert db.Db.access ~txn:t1 ~key:(2 * k) ~payload:(payload (2 * k))
      done;
      Txn_mgr.commit db.Db.mgr t1);
  Engine.run eng;
  let eng = Engine.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  let t2 = Txn_mgr.begin_txn db.Db.mgr in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Access.insert db.Db.access ~txn:t1 ~key:101 ~payload:"a";
      order := "t1-inserted" :: !order;
      Engine.sleep 10;
      Txn_mgr.commit db.Db.mgr t1;
      order := "t1-committed" :: !order);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      Access.insert db.Db.access ~txn:t2 ~key:103 ~payload:"b";
      order := "t2-inserted" :: !order;
      Txn_mgr.commit db.Db.mgr t2);
  Engine.run eng;
  Alcotest.(check (list string)) "t2 waited for t1's X page lock"
    [ "t1-inserted"; "t1-committed"; "t2-inserted" ]
    (List.rev !order)

let test_record_lock_conflicts_on_same_key () =
  let db = Db.create ~record_locking:true () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let t = Txn_mgr.begin_txn db.Db.mgr in
      Access.insert db.Db.access ~txn:t ~key:50 ~payload:"v";
      Txn_mgr.commit db.Db.mgr t);
  Engine.run eng;
  let eng = Engine.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  let t2 = Txn_mgr.fresh_owner db.Db.mgr in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      ignore (Access.delete db.Db.access ~txn:t1 50);
      order := "t1-deleted" :: !order;
      Engine.sleep 10;
      Txn_mgr.commit db.Db.mgr t1;
      order := "t1-committed" :: !order);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      (* Reading the same key must wait for the deleter's commit. *)
      ignore (Access.read db.Db.access ~txn:t2 50);
      order := "t2-read" :: !order;
      Txn_mgr.finish_read_only db.Db.mgr t2);
  Engine.run eng;
  Alcotest.(check (list string)) "reader waited for the key lock"
    [ "t1-deleted"; "t1-committed"; "t2-read" ]
    (List.rev !order)

let test_reorg_with_record_locking_users () =
  let records = List.init 500 (fun i -> (2 * i, payload (2 * i))) in
  let db = Db.load ~record_locking:true ~leaf_pages:2048 ~fill:0.3 records in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Driver.run ctx);
      finished := true);
  let stats =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:3 ~users:6 ~ops_per_user:10_000
      ~key_space:500
      ~stop:(fun () -> !finished)
      ~mix:Workload.Mix.update_heavy ()
  in
  Engine.run eng;
  Alcotest.(check bool) "reorg finished" true !finished;
  Alcotest.(check bool) "users worked" true (stats.Workload.Mix.committed > 0);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let () =
  Alcotest.run "access"
    [
      ( "lock footprints",
        [
          Alcotest.test_case "reader" `Quick test_reader_lock_footprint;
          Alcotest.test_case "updater" `Quick test_updater_lock_footprint;
          Alcotest.test_case "structure restart" `Quick test_structure_restart_releases_locks;
        ] );
      ( "give-up protocol",
        [
          Alcotest.test_case "reader vs RX" `Quick test_reader_gives_up_on_rx;
          Alcotest.test_case "updater vs RX" `Quick test_updater_gives_up_on_rx;
          Alcotest.test_case "range scan vs RX" `Quick test_range_read_during_rx;
        ] );
      ( "hooks + rollback",
        [
          Alcotest.test_case "base-update hook" `Quick test_base_update_hook_fires_only_with_bit;
          Alcotest.test_case "abort" `Quick test_abort_under_protocols;
        ] );
      ( "record-level locking",
        [
          Alcotest.test_case "IX coexists on one leaf" `Quick
            test_record_locking_allows_same_leaf;
          Alcotest.test_case "page X serializes" `Quick test_page_locking_serializes_same_leaf;
          Alcotest.test_case "key conflicts serialize" `Quick
            test_record_lock_conflicts_on_same_key;
          Alcotest.test_case "reorg + record-locking users" `Quick
            test_reorg_with_record_locking_users;
        ] );
      ( "stress",
        [ Alcotest.test_case "random interleavings" `Quick test_many_random_interleavings ] );
    ]
