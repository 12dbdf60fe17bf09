(* Sharding tests: routing is a partition (every key exactly one shard, range
   splits cover exactly), stitched cross-shard scans equal a single scan of
   the merged keyspace, reorganizer unit ids and transaction ids stay
   globally disjoint across shards, cross-shard deadlocks are detected, the
   prefixed registry namespaces per-shard metrics, commit atomicity survives
   a crash sweep, and the parallel phase's makespan actually scales. *)

module Engine = Sched.Engine
module Store = Shard.Store
module Shard_map = Shard.Shard_map
module Coordinator = Shard.Coordinator
module Router = Shard.Router
module Record = Wal.Record

let in_engine f =
  let eng = Engine.create () in
  let r = ref None in
  Engine.spawn eng ~name:"test" (fun () -> r := Some (f ()));
  Engine.run eng;
  Option.get !r

(* ------------------------------------------------------------------ *)
(* Routing is a partition                                              *)
(* ------------------------------------------------------------------ *)

let random_map rng =
  let n = 1 + Util.Rng.int rng 7 in
  let draws = List.init n (fun _ -> Util.Rng.int rng 10_000) in
  let boundaries = List.sort_uniq compare draws in
  Shard_map.create ~boundaries

let prop_every_key_exactly_one_shard seed () =
  let rng = Util.Rng.create seed in
  for _ = 1 to 20 do
    let map = random_map rng in
    let shards = Shard_map.shards map in
    for _ = 1 to 200 do
      let key = Util.Rng.int rng 12_000 - 1_000 in
      let o = Shard_map.owner map key in
      Alcotest.(check bool) "owner in range" true (o >= 0 && o < shards);
      (* The key is inside the owner's range and no other shard's. *)
      let inside i =
        let lo, hi = Shard_map.range_of map i in
        (match lo with None -> true | Some l -> key >= l)
        && match hi with None -> true | Some h -> key < h
      in
      for i = 0 to shards - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "key %d inside shard %d iff owner" key i)
          (i = o) (inside i)
      done
    done
  done

let prop_split_covers_exactly seed () =
  let rng = Util.Rng.create seed in
  for _ = 1 to 50 do
    let map = random_map rng in
    let a = Util.Rng.int rng 12_000 - 1_000 in
    let b = Util.Rng.int rng 12_000 - 1_000 in
    let lo = min a b and hi = max a b in
    let segs = Shard_map.split map ~lo ~hi in
    (* Segments are contiguous, ascending, and cover [lo, hi] exactly. *)
    (match segs with
    | [] -> Alcotest.fail "split returned no segments for a non-empty range"
    | (s0, l0, _) :: _ ->
      Alcotest.(check int) "first segment starts at lo" lo l0;
      Alcotest.(check int) "first segment owned" (Shard_map.owner map lo) s0);
    let rec walk = function
      | [ (s, l, h) ] ->
        Alcotest.(check int) "last segment ends at hi" hi h;
        Alcotest.(check int) "segment owner (lo)" s (Shard_map.owner map l);
        Alcotest.(check int) "segment owner (hi)" s (Shard_map.owner map h)
      | (s, l, h) :: (((s', l', _) :: _) as rest) ->
        Alcotest.(check int) "segments contiguous" (h + 1) l';
        Alcotest.(check bool) "shards ascending" true (s < s');
        Alcotest.(check int) "segment owner (lo)" s (Shard_map.owner map l);
        Alcotest.(check int) "segment owner (hi)" s (Shard_map.owner map h);
        walk rest
      | [] -> ()
    in
    walk segs
  done

(* ------------------------------------------------------------------ *)
(* Stitched scans = single scan of the merged keyspace                 *)
(* ------------------------------------------------------------------ *)

let prop_stitched_scan_matches seed () =
  let t, expected = Sim.Sharded.thinned ~seed ~n:400 ~survive:0.5 ~shards:4 () in
  in_engine (fun () ->
      (* Full-range scan equals the merged expected set. *)
      let x = Coordinator.begin_x t.Sim.Sharded.coord in
      let all = Router.range_read t.Sim.Sharded.router x ~lo:0 ~hi:800 in
      Coordinator.commit t.Sim.Sharded.coord x;
      Alcotest.(check int) "full scan size" (List.length expected) (List.length all);
      List.iter2
        (fun (k, v) (r : Btree.Leaf.record) ->
          Alcotest.(check int) "key" k r.Btree.Leaf.key;
          Alcotest.(check string) "payload" v r.Btree.Leaf.payload)
        expected all;
      (* Sub-ranges straddling shard boundaries, via the lazy cursor. *)
      let rng = Util.Rng.create (seed * 31) in
      for _ = 1 to 10 do
        let a = Util.Rng.int rng 800 and b = Util.Rng.int rng 800 in
        let lo = min a b and hi = max a b in
        let want = List.filter (fun (k, _) -> k >= lo && k <= hi) expected in
        let x = Coordinator.begin_x t.Sim.Sharded.coord in
        let cur = Router.scan t.Sim.Sharded.router x ~lo ~hi in
        let got = ref [] in
        let rec drain () =
          match Router.next cur with
          | Some r -> got := (r.Btree.Leaf.key, r.Btree.Leaf.payload) :: !got;
            drain ()
          | None -> ()
        in
        drain ();
        Coordinator.commit t.Sim.Sharded.coord x;
        Alcotest.(check (list (pair int string)))
          (Printf.sprintf "stitched scan [%d,%d]" lo hi)
          want (List.rev !got)
      done)

let prop_point_ops_route seed () =
  let t, expected = Sim.Sharded.thinned ~seed ~n:300 ~survive:0.6 ~shards:3 () in
  in_engine (fun () ->
      let rng = Util.Rng.create (seed * 17) in
      for _ = 1 to 30 do
        let k, v = List.nth expected (Util.Rng.int rng (List.length expected)) in
        let x = Coordinator.begin_x t.Sim.Sharded.coord in
        (match Router.read t.Sim.Sharded.router x k with
        | Some v' -> Alcotest.(check string) "routed read" v v'
        | None -> Alcotest.fail (Printf.sprintf "lost key %d" k));
        Coordinator.commit t.Sim.Sharded.coord x
      done;
      (* A missing key reads as absent through the router too. *)
      let x = Coordinator.begin_x t.Sim.Sharded.coord in
      Alcotest.(check bool) "odd key absent" true
        (Router.read t.Sim.Sharded.router x 1 = None);
      Coordinator.commit t.Sim.Sharded.coord x)

(* ------------------------------------------------------------------ *)
(* Satellite: globally disjoint ids across shards                      *)
(* ------------------------------------------------------------------ *)

let test_ids_disjoint_across_shards () =
  let t, _expected = Sim.Sharded.thinned ~seed:7 ~n:600 ~survive:0.4 ~shards:2 () in
  let outcome = Sim.Sharded.reorg_parallel t in
  Alcotest.(check bool) "both reorganizers worked" true (outcome.Sim.Sharded.makespan > 0);
  let ids_of (st : Store.t) =
    let units = ref [] and txns = ref [] in
    Wal.Log.iter st.Store.log (fun _ body ->
        match body with
        | Record.Reorg_begin { unit_id; _ } -> units := unit_id :: !units
        | Record.Txn_begin id -> txns := id :: !txns
        | _ -> ());
    (!units, !txns)
  in
  let u0, t0 = ids_of t.Sim.Sharded.stores.(0) in
  let u1, t1 = ids_of t.Sim.Sharded.stores.(1) in
  Alcotest.(check bool) "shard 0 ran units" true (u0 <> []);
  Alcotest.(check bool) "shard 1 ran units" true (u1 <> []);
  (* Shard i of 2 draws every id from the residue class (i+1) mod 2: shard 0
     odd, shard 1 even — so the two shards can never collide. *)
  let all_parity p ids = List.for_all (fun id -> id land 1 = p) ids in
  Alcotest.(check bool) "shard 0 unit ids odd" true (all_parity 1 u0);
  Alcotest.(check bool) "shard 1 unit ids even" true (all_parity 0 u1);
  Alcotest.(check bool) "shard 0 txn ids odd" true (all_parity 1 t0);
  Alcotest.(check bool) "shard 1 txn ids even" true (all_parity 0 t1);
  let inter = List.filter (fun u -> List.mem u u1) u0 in
  Alcotest.(check (list int)) "unit ids disjoint" [] inter;
  let inter_t = List.filter (fun x -> List.mem x t1) t0 in
  Alcotest.(check (list int)) "txn ids disjoint" [] inter_t

(* ------------------------------------------------------------------ *)
(* Cross-shard deadlock detection                                      *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_deadlock_detected () =
  let t, expected = Sim.Sharded.thinned ~seed:11 ~n:200 ~survive:0.8 ~shards:2 () in
  let key_in shard =
    match List.find_opt (fun (k, _) -> Shard_map.owner t.Sim.Sharded.map k = shard) expected with
    | Some (k, _) -> k
    | None -> Alcotest.fail (Printf.sprintf "no key in shard %d" shard)
  in
  let a = key_in 0 and b = key_in 1 in
  let victims = ref 0 and commits = ref 0 in
  let eng = Engine.create () in
  let chase first second name =
    Engine.spawn eng ~name (fun () ->
        let x = Coordinator.begin_x t.Sim.Sharded.coord in
        try
          ignore
            (Router.update t.Sim.Sharded.router x ~key:first
               ~payload:(Store.payload_for first));
          Engine.sleep 5;
          ignore
            (Router.update t.Sim.Sharded.router x ~key:second
               ~payload:(Store.payload_for second));
          Coordinator.commit t.Sim.Sharded.coord x;
          incr commits
        with Transact.Lock_client.Deadlock_victim ->
          Coordinator.abort t.Sim.Sharded.coord x;
          incr victims)
  in
  chase a b "x-forward";
  chase b a "x-backward";
  Engine.run eng;
  (* Opposite lock orders across two different lock managers: only the
     cross-shard waits-for union can see this cycle. *)
  Alcotest.(check int) "one victim" 1 !victims;
  Alcotest.(check int) "one commit" 1 !commits;
  Sim.Sharded.check_invariants t;
  let stats = Coordinator.stats t.Sim.Sharded.coord in
  Alcotest.(check int) "coordinator counted the abort" 1 stats.Coordinator.aborted

(* ------------------------------------------------------------------ *)
(* Prefixed registries                                                 *)
(* ------------------------------------------------------------------ *)

let test_prefixed_registry () =
  let root = Obs.Registry.create () in
  let s0 = Obs.Registry.prefixed root "shard0." in
  let s1 = Obs.Registry.prefixed root "shard1." in
  let c0 = Obs.Registry.counter s0 "wal.records" in
  let c1 = Obs.Registry.counter s1 "wal.records" in
  Obs.Counter.incr ~by:3 c0;
  Obs.Counter.incr ~by:5 c1;
  Alcotest.(check (option int)) "root sees shard0" (Some 3)
    (Obs.Registry.value root "shard0.wal.records");
  Alcotest.(check (option int)) "root sees shard1" (Some 5)
    (Obs.Registry.value root "shard1.wal.records");
  Alcotest.(check (option int)) "view resolves unprefixed" (Some 3)
    (Obs.Registry.value s0 "wal.records");
  Alcotest.(check (option int)) "no unprefixed leak" None
    (Obs.Registry.value root "wal.records");
  let nested = Obs.Registry.prefixed s1 "pool." in
  Obs.Counter.incr (Obs.Registry.counter nested "hits");
  Alcotest.(check (option int)) "prefixes accumulate" (Some 1)
    (Obs.Registry.value root "shard1.pool.hits")

(* A traced sharded run with users records every store's lock, pager and
   WAL events, not only the engine's and the reorganizers'. *)
let test_sharded_trace_covers_stores () =
  let t, _ = Sim.Sharded.thinned ~seed:3 ~n:1200 ~survive:0.35 ~shards:3 () in
  let tracer = Obs.Trace.create () in
  ignore
    (Sim.Sharded.reorg_with_users ~tracer ~users:4 ~seed:4 ~key_space:2400 t
      : Sim.Sharded.reorg_outcome * Workload.Mix.stats);
  let json = Obs.Trace.to_chrome_json tracer in
  let count cat =
    let pat = Printf.sprintf "\"cat\":\"%s\"" cat in
    let len = String.length pat in
    let n = ref 0 in
    for i = 0 to String.length json - len do
      if String.sub json i len = pat then incr n
    done;
    !n
  in
  List.iter
    (fun cat ->
      Alcotest.(check bool) (Printf.sprintf "%s events recorded (%d)" cat (count cat)) true
        (count cat > 0))
    [ "lock"; "pager"; "wal" ]

(* ------------------------------------------------------------------ *)
(* Crash/recovery: acked cross-shard txns are all-or-nothing           *)
(* ------------------------------------------------------------------ *)

let test_commit_atomicity_sweep () =
  let r = Sim.Torture.run_sharded ~n:140 ~shards:2 ~users:2 ~seed:5 ~stride:1 () in
  Alcotest.(check bool) "boundaries found" true (r.Sim.Torture.write_boundaries > 0);
  Alcotest.(check bool) "crashes exercised" true (r.Sim.Torture.crashes > 0);
  Alcotest.(check bool) "every boundary swept" true
    (r.Sim.Torture.points >= r.Sim.Torture.write_boundaries + r.Sim.Torture.force_boundaries);
  (* Every armed plan either tripped or its boundary was never reached. *)
  Alcotest.(check int) "crashes + survivors = points" r.Sim.Torture.points
    (r.Sim.Torture.crashes + r.Sim.Torture.survivors);
  Alcotest.(check bool) "acked txns verified" true (r.Sim.Torture.acked_txns > 0);
  (* A three-shard sweep too: commit records span more than two WALs. *)
  let r3 = Sim.Torture.run_sharded ~n:150 ~shards:3 ~users:2 ~xspan:3 ~seed:9 ~stride:5 () in
  Alcotest.(check bool) "3-shard crashes exercised" true (r3.Sim.Torture.crashes > 0)

(* ------------------------------------------------------------------ *)
(* Parallel-phase scaling                                              *)
(* ------------------------------------------------------------------ *)

let test_parallel_makespan_scales () =
  let rows = Util.Table.rows (Sim.Exp_shard.run ~n:1600 ~counts:[ 1; 4 ] ()) in
  let makespan shards =
    match
      List.find_opt (fun row -> List.assoc "shards" row = Util.Table.Int shards) rows
    with
    | Some row -> (
      match List.assoc "makespan" row with
      | Util.Table.Int m -> m
      | _ -> Alcotest.fail "makespan cell is not an int")
    | None -> Alcotest.failf "no %d-shard row" shards
  in
  let m1 = makespan 1 and m4 = makespan 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4-shard makespan %d <= 0.6 * 1-shard %d" m4 m1)
    true
    (float_of_int m4 <= 0.6 *. float_of_int m1)

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "every key exactly one shard (seed 1)" `Quick
            (prop_every_key_exactly_one_shard 1);
          Alcotest.test_case "every key exactly one shard (seed 2)" `Quick
            (prop_every_key_exactly_one_shard 2);
          Alcotest.test_case "every key exactly one shard (seed 3)" `Quick
            (prop_every_key_exactly_one_shard 3);
          Alcotest.test_case "splits cover exactly (seed 1)" `Quick
            (prop_split_covers_exactly 1);
          Alcotest.test_case "splits cover exactly (seed 2)" `Quick
            (prop_split_covers_exactly 2);
          Alcotest.test_case "splits cover exactly (seed 3)" `Quick
            (prop_split_covers_exactly 3);
        ] );
      ( "scans",
        [
          Alcotest.test_case "stitched = merged (seed 1)" `Quick
            (prop_stitched_scan_matches 1);
          Alcotest.test_case "stitched = merged (seed 2)" `Quick
            (prop_stitched_scan_matches 2);
          Alcotest.test_case "stitched = merged (seed 3)" `Quick
            (prop_stitched_scan_matches 3);
          Alcotest.test_case "point ops route (seed 4)" `Quick (prop_point_ops_route 4);
        ] );
      ( "isolation",
        [
          Alcotest.test_case "unit and txn ids disjoint across shards" `Quick
            test_ids_disjoint_across_shards;
          Alcotest.test_case "cross-shard deadlock detected" `Quick
            test_cross_shard_deadlock_detected;
          Alcotest.test_case "prefixed registries namespace metrics" `Quick
            test_prefixed_registry;
          Alcotest.test_case "sharded trace covers every store" `Quick
            test_sharded_trace_covers_stores;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "acked cross-shard txns all-or-nothing (crash sweep)" `Slow
            test_commit_atomicity_sweep;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "4-shard parallel makespan <= 0.6x" `Slow
            test_parallel_makespan_scales;
        ] );
    ]
