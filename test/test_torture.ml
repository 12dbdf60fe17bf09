(* Forward-recovery torture: crash at every I/O boundary, recover, verify.

   The full-size sweeps live behind [stride] sampling so the suite stays
   fast; the small trees are swept exhaustively (stride 1) on several
   seeds, which is the paper's §5.1 claim at full resolution. *)

module Torture = Sim.Torture

let check_report name (r : Torture.report) =
  Alcotest.(check bool)
    (name ^ ": boundaries discovered")
    true
    (r.Torture.write_boundaries > 0 && r.Torture.force_boundaries > 0);
  Alcotest.(check bool) (name ^ ": points tested") true (r.Torture.points > 0);
  (* Every armed plan either tripped or its boundary was never reached. *)
  Alcotest.(check int)
    (name ^ ": crashes + survivors = points")
    r.Torture.points
    (r.Torture.crashes + r.Torture.survivors)

let test_stride1_sweep () =
  let finished = ref 0 in
  List.iter
    (fun seed ->
      let r = Torture.run ~seed ~stride:1 ~n:60 ~leaf_pages:64 () in
      check_report (Printf.sprintf "seed %d" seed) r;
      finished := !finished + r.Torture.units_finished)
    [ 11; 23; 42 ];
  (* Across the exhaustive sweeps some crash must have interrupted a unit
     mid-flight — otherwise forward recovery was never actually exercised. *)
  Alcotest.(check bool) "units finished forward" true (!finished > 0)

let test_sampled_default_size () =
  let r = Torture.run ~seed:7 ~stride:37 () in
  check_report "default size" r;
  Alcotest.(check bool) "some plans tripped" true (r.Torture.crashes > 0)

let test_with_users () =
  let r = Torture.run ~seed:5 ~stride:11 ~n:80 ~leaf_pages:64 ~users:2 () in
  check_report "users" r

let test_pipelined_sweep () =
  (* Same sweep with the async durability pipeline attached: crash
     boundaries now land inside group-commit windows and elevator sweeps,
     and fuzzy checkpoints truncate the WAL mid-workload. *)
  let r = Torture.run ~seed:11 ~stride:9 ~n:80 ~leaf_pages:64 ~users:2 ~pipeline:true () in
  check_report "pipelined" r;
  Alcotest.(check bool) "some plans tripped" true (r.Torture.crashes > 0)

let test_torn_faults_seen () =
  (* The boundary sweep draws torn variants from the seeded rng; over a full
     stride-1 sweep both kinds of tear must actually occur, or the harness
     is silently not testing them. *)
  let r = Torture.run ~seed:23 ~stride:1 ~n:60 ~leaf_pages:64 () in
  Alcotest.(check bool) "torn page writes injected" true (r.Torture.torn_writes > 0);
  Alcotest.(check bool) "torn WAL tails injected" true (r.Torture.torn_tails > 0)

(* Mutation test: a database that really is corrupt must fail verification —
   otherwise the sweeps above prove nothing. *)
let test_mutation_caught () =
  let in_engine f =
    let eng = Sched.Engine.create () in
    Sched.Engine.spawn eng f;
    Sched.Engine.run eng
  in
  let mutate_and_expect label mutate =
    let db, base = Sim.Scenario.aged ~seed:3 ~n:80 ~f1:0.3 () in
    let exp = Torture.expectation_of_base base in
    in_engine (fun () -> mutate db);
    let caught = try Torture.verify [| db |] exp; false with Torture.Failed _ -> true in
    Alcotest.(check bool) label true caught
  in
  (* A lost base record (a unit that rolled back instead of forward). *)
  mutate_and_expect "lost record caught" (fun db ->
      let tx = Transact.Txn_mgr.begin_txn db.Sim.Db.mgr in
      ignore (Btree.Access.delete db.Sim.Db.access ~txn:tx 40);
      Transact.Txn_mgr.commit db.Sim.Db.mgr tx);
  (* A phantom record nobody ever inserted (a replayed-twice dup). *)
  mutate_and_expect "phantom record caught" (fun db ->
      let tx = Transact.Txn_mgr.begin_txn db.Sim.Db.mgr in
      Btree.Access.insert db.Sim.Db.access ~txn:tx ~key:41 ~payload:"ghost";
      Transact.Txn_mgr.commit db.Sim.Db.mgr tx);
  (* Two shards and an acknowledged transaction that wrote one key in each:
     once one of its keys is gone, the transaction is half-applied and the
     all-or-nothing clause must object. *)
  let t, base = Sim.Sharded.thinned ~seed:3 ~n:80 ~survive:0.5 ~shards:2 () in
  let stores = t.Sim.Sharded.stores in
  let group = List.map (fun k -> (k, Shard.Store.payload_for k)) [ 41; 121 ] in
  let exp = Torture.expectation_of_base base in
  List.iter (fun (k, v) -> Hashtbl.replace exp.Torture.attempted k v) group;
  exp.Torture.acked <- [ group ];
  let xtxn f =
    in_engine (fun () ->
        let x = Shard.Coordinator.begin_x t.Sim.Sharded.coord in
        f x;
        Shard.Coordinator.commit t.Sim.Sharded.coord x)
  in
  xtxn (fun x ->
      List.iter (fun (k, v) -> Shard.Router.insert t.Sim.Sharded.router x ~key:k ~payload:v) group);
  Alcotest.(check (list int)) "group spans both shards" [ 0; 1 ]
    (List.map (fun (k, _) -> Shard.Shard_map.owner t.Sim.Sharded.map k) group);
  Torture.verify stores exp;
  xtxn (fun x -> ignore (Shard.Router.delete t.Sim.Sharded.router x 121 : string option));
  let caught = try Torture.verify stores exp; false with Torture.Failed _ -> true in
  Alcotest.(check bool) "half-applied acked transaction caught" true caught

let () =
  Alcotest.run "torture"
    [
      ( "sweeps",
        [
          Alcotest.test_case "stride-1 small trees x3 seeds" `Quick test_stride1_sweep;
          Alcotest.test_case "sampled default size" `Quick test_sampled_default_size;
          Alcotest.test_case "with concurrent users" `Quick test_with_users;
          Alcotest.test_case "pipelined sweep" `Quick test_pipelined_sweep;
          Alcotest.test_case "torn faults exercised" `Quick test_torn_faults_seen;
        ] );
      ("mutation", [ Alcotest.test_case "corruption is caught" `Quick test_mutation_caught ]);
    ]
