(* Tree-health telemetry tests: the incremental tracker against brute-force
   full-scan recomputation, hook composition in the scheduler/probe, watch
   threshold subscriptions, and the sampler's deterministic series. *)

module Engine = Sched.Engine
module Health = Obs.Health
module Sampler = Obs.Health.Sampler
module Tree = Btree.Tree
module Txn_mgr = Transact.Txn_mgr

(* ------------------------------------------------------------------ *)
(* Tracker unit behaviour (no database: a hand-rolled refresher)       *)
(* ------------------------------------------------------------------ *)

let info ?(usable = 100) ?(next = None) ?(low = 0) live =
  { Health.live; usable; next_pid = next; low_key = low }

let test_tracker_basics () =
  let pages = Hashtbl.create 8 in
  let h = Health.create () in
  Health.set_refresher h (Hashtbl.find_opt pages);
  (* Two physically adjacent leaves, then one out of place. *)
  Hashtbl.replace pages 10 (info ~next:(Some 11) ~low:0 40);
  Hashtbl.replace pages 11 (info ~next:(Some 20) ~low:100 80);
  Hashtbl.replace pages 20 (info ~next:None ~low:200 10);
  List.iter (Health.note_dirty h) [ 10; 11; 20 ];
  Alcotest.(check int) "pending before read" 3 (Health.pending_count h);
  let st = Health.stats h in
  Alcotest.(check int) "pending drained" 0 (Health.pending_count h);
  Alcotest.(check int) "leaves" 3 st.Health.leaves;
  Alcotest.(check int) "live" 130 st.Health.live_bytes;
  Alcotest.(check int) "usable" 300 st.Health.usable_bytes;
  Alcotest.(check int) "one chain break (11 -> 20)" 1 st.Health.chain_breaks;
  Alcotest.(check (float 1e-9)) "fragmentation over leaves-1" 0.5 st.Health.fragmentation;
  Alcotest.(check int) "fill decile 4 (40%)" 1 st.Health.fill_buckets.(4);
  Alcotest.(check int) "fill decile 8 (80%)" 1 st.Health.fill_buckets.(8);
  Alcotest.(check int) "fill decile 1 (10%)" 1 st.Health.fill_buckets.(1);
  (* Mutate one page: only it is re-examined, aggregates move by delta. *)
  Hashtbl.replace pages 11 (info ~next:(Some 20) ~low:100 20);
  Health.note_dirty h 11;
  let st = Health.stats h in
  Alcotest.(check int) "live after delta" 70 st.Health.live_bytes;
  Alcotest.(check int) "fill decile 2 gained" 1 st.Health.fill_buckets.(2);
  Alcotest.(check int) "fill decile 8 emptied" 0 st.Health.fill_buckets.(8);
  (* A page that stops being a leaf drops out entirely. *)
  Hashtbl.remove pages 20;
  Health.note_dirty h 20;
  let st = Health.stats h in
  Alcotest.(check int) "leaf gone" 2 st.Health.leaves;
  Alcotest.(check int) "its break went too" 1 st.Health.chain_breaks;
  (* Region utilization: only pages whose low key is inside count. *)
  Alcotest.(check (float 1e-9)) "region [0,50]" 0.4 (Health.region_utilization h ~lo:0 ~hi:50);
  Alcotest.(check (float 1e-9)) "empty region is vacuously full" 1.0
    (Health.region_utilization h ~lo:5000 ~hi:6000);
  (* invalidate_all marks every tracked page pending. *)
  Health.invalidate_all h;
  Alcotest.(check int) "all pending" 2 (Health.pending_count h)

let test_watch_edge_trigger () =
  let pages = Hashtbl.create 8 in
  let h = Health.create () in
  Health.set_refresher h (Hashtbl.find_opt pages);
  Hashtbl.replace pages 1 (info 30);
  Health.note_dirty h 1;
  let fired = ref [] in
  Health.watch h ~name:"low" ~signal:Health.Utilization ~op:`Lt ~threshold:0.55 (fun f ->
      fired := f :: !fired);
  (* Fires once while the condition holds, not every tick. *)
  Alcotest.(check int) "first check fires" 1 (List.length (Health.check_watches h ~now:1));
  Alcotest.(check int) "second check silent" 0 (List.length (Health.check_watches h ~now:2));
  (match !fired with
  | [ f ] ->
    Alcotest.(check string) "name" "low" f.Health.f_name;
    Alcotest.(check int) "stamped" 1 f.Health.f_at;
    Alcotest.(check (float 1e-9)) "value" 0.3 f.Health.f_value
  | _ -> Alcotest.fail "expected exactly one fire");
  (* Condition clears -> re-arms -> fires again on the next breach. *)
  Hashtbl.replace pages 1 (info 80);
  Health.note_dirty h 1;
  Alcotest.(check int) "cleared" 0 (List.length (Health.check_watches h ~now:3));
  Hashtbl.replace pages 1 (info 10);
  Health.note_dirty h 1;
  Alcotest.(check int) "re-fires" 1 (List.length (Health.check_watches h ~now:4));
  Alcotest.(check int) "total" 2 (Health.watch_fires h);
  (* Unwatch removes it. *)
  Health.unwatch h "low";
  Hashtbl.replace pages 1 (info 90);
  Health.note_dirty h 1;
  Hashtbl.replace pages 1 (info 5);
  Health.note_dirty h 1;
  Alcotest.(check int) "unwatched" 0 (List.length (Health.check_watches h ~now:5))

(* ------------------------------------------------------------------ *)
(* Property: incremental stats == brute-force full scan                *)
(* ------------------------------------------------------------------ *)

type brute = {
  b_leaves : int;
  b_live : int;
  b_usable : int;
  b_breaks : int;
  b_fill : int array;
}

let brute_force db =
  let usable =
    Btree.Layout.usable_bytes ~page_size:(Pager.Buffer_pool.page_size db.Sim.Db.pool)
  in
  let leaves = ref 0 and live = ref 0 and breaks = ref 0 in
  let fill = Array.make Health.buckets 0 in
  Tree.iter_leaves db.Sim.Db.tree (fun pid page ->
      incr leaves;
      let lb = Btree.Leaf.live_bytes page in
      live := !live + lb;
      (match Btree.Leaf.next page with
      | Some n when n <> pid + 1 -> incr breaks
      | _ -> ());
      let b = Health.bucket_index ~live:lb ~usable in
      fill.(b) <- fill.(b) + 1);
  { b_leaves = !leaves; b_live = !live; b_usable = !leaves * usable; b_breaks = !breaks;
    b_fill = fill }

let check_agrees ~ctx db =
  let b = brute_force db in
  let st = Health.stats db.Sim.Db.health in
  let name s = Printf.sprintf "%s: %s" ctx s in
  Alcotest.(check int) (name "leaves") b.b_leaves st.Health.leaves;
  Alcotest.(check int) (name "live bytes") b.b_live st.Health.live_bytes;
  Alcotest.(check int) (name "usable bytes") b.b_usable st.Health.usable_bytes;
  Alcotest.(check int) (name "chain breaks") b.b_breaks st.Health.chain_breaks;
  Alcotest.(check (array int)) (name "fill histogram") b.b_fill st.Health.fill_buckets

(* Random transactional inserts and deletes, committed in small batches. *)
let random_ops db rng ~ops ~key_range =
  let batch = ref (Txn_mgr.begin_txn db.Sim.Db.mgr) in
  let in_batch = ref 0 in
  for _ = 1 to ops do
    (if Util.Rng.chance rng 0.45 then begin
       (* Odd keys never collide with the even-keyed base load. *)
       let k = (2 * Util.Rng.int rng key_range) + 1 in
       try Tree.insert db.Sim.Db.tree ~txn:!batch ~key:k ~payload:"prop-test-payload" ()
       with Tree.Duplicate_key _ -> ()
     end
     else
       let k = 2 * Util.Rng.int rng key_range in
       ignore (Tree.delete db.Sim.Db.tree ~txn:!batch k : string option));
    incr in_batch;
    if !in_batch >= 20 then begin
      Txn_mgr.commit db.Sim.Db.mgr !batch;
      batch := Txn_mgr.begin_txn db.Sim.Db.mgr;
      in_batch := 0
    end
  done;
  Txn_mgr.commit db.Sim.Db.mgr !batch

let prop_incremental_matches_brute_force seed () =
  let rng = Util.Rng.create (1000 + seed) in
  let n = 600 + (100 * seed) in
  let db, _ = Sim.Scenario.aged ~seed ~n ~f1:0.3 ~leaf_pages:2048 () in
  check_agrees ~ctx:"after aged load" db;
  random_ops db rng ~ops:400 ~key_range:n;
  check_agrees ~ctx:"after random ops" db;
  ignore (Sim.Scenario.run_reorg Sim.Scenario.default db);
  check_agrees ~ctx:"after reorg" db;
  random_ops db rng ~ops:200 ~key_range:n;
  check_agrees ~ctx:"after post-reorg ops" db;
  Btree.Invariant.check ~alloc:db.Sim.Db.alloc db.Sim.Db.tree

(* ------------------------------------------------------------------ *)
(* Scheduler hook composition / Probe regression                       *)
(* ------------------------------------------------------------------ *)

(* Before hooks composed, Probe.with_collector silently dropped any create
   hook someone else had installed (and uninstalled it on exit).  Now a
   foreign hook keeps firing through and after a collector window. *)
let test_probe_does_not_clobber_hooks () =
  let foreign = ref 0 in
  let id = Engine.add_create_hook (fun _ -> incr foreign) in
  Fun.protect
    ~finally:(fun () -> Engine.remove_create_hook id)
    (fun () ->
      let (), sample =
        Sim.Probe.with_collector (fun () ->
            ignore (Engine.create ());
            ignore (Engine.create ()))
      in
      Alcotest.(check int) "collector saw both engines" 2 sample.Sim.Probe.engines;
      Alcotest.(check int) "foreign hook saw both engines" 2 !foreign;
      ignore (Engine.create ());
      Alcotest.(check int) "foreign hook survives collector teardown" 3 !foreign);
  ignore (Engine.create ());
  Alcotest.(check int) "removed hook stops firing" 3 !foreign

let test_hooks_compose_and_remove_independently () =
  let a = ref 0 and b = ref 0 in
  let ida = Engine.add_create_hook (fun _ -> incr a) in
  let idb = Engine.add_create_hook (fun _ -> incr b) in
  Fun.protect
    ~finally:(fun () ->
      Engine.remove_create_hook ida;
      Engine.remove_create_hook idb)
    (fun () ->
      ignore (Engine.create ());
      Alcotest.(check (pair int int)) "both fire" (1, 1) (!a, !b);
      (* Removing one registration leaves the other alone. *)
      Engine.remove_create_hook idb;
      ignore (Engine.create ());
      Alcotest.(check (pair int int)) "removed hook stops, other stays" (2, 1) (!a, !b);
      (* Double-removal of an already removed id is a no-op. *)
      Engine.remove_create_hook idb;
      ignore (Engine.create ());
      Alcotest.(check (pair int int)) "idempotent removal" (3, 1) (!a, !b))

(* Two databases in one process: each keeps its own working health tracker
   (the per-pool dirty hooks must not interfere). *)
let test_two_dbs_track_independently () =
  let mk n = Sim.Db.load ~fill:0.9 (List.init n (fun i -> (2 * i, Sim.Db.payload_for (2 * i)))) in
  let db1 = mk 300 in
  let db2 = mk 900 in
  check_agrees ~ctx:"db1" db1;
  check_agrees ~ctx:"db2" db2;
  let s1 = Health.stats db1.Sim.Db.health in
  let s2 = Health.stats db2.Sim.Db.health in
  Alcotest.(check bool) "trackers are distinct" true (s1.Health.leaves < s2.Health.leaves)

(* The trace and the checker are subscribers of the same bus as health:
   attaching them (the checker's optimistic-read oracle fixes pages of its
   own) must not change what health sees. *)
let test_observers_leave_health_alone () =
  let run ~observed =
    let db, _ = Sim.Scenario.aged ~seed:23 ~n:400 ~leaf_pages:512 ~f1:0.3 () in
    let tracer = Obs.Trace.create () and checker = Model.Checker.create () in
    ignore
      (Sim.Scenario.run_reorg
         { Sim.Scenario.default with
           tracer = (if observed then Some tracer else None);
           checker = (if observed then Some checker else None);
           users = 4; user_ops = 300; seed = 3 }
         db);
    Model.Checker.finalize checker;
    (Health.stats db.Sim.Db.health, Obs.Trace.event_count tracer, Model.Checker.events checker)
  in
  let plain, _, _ = run ~observed:false in
  let seen, trace_events, checked = run ~observed:true in
  Alcotest.(check bool) "observers attached" true (trace_events > 0 && checked > 0);
  Alcotest.(check bool) "a reorganization happened" true (plain.Health.units > 0);
  Alcotest.(check bool) "identical health stats" true (plain = seen)

(* ------------------------------------------------------------------ *)
(* Sampler + watches on a real sparsification run                      *)
(* ------------------------------------------------------------------ *)

let sampled_run () =
  let db, _ = Sim.Scenario.thinned ~seed:5 ~n:1200 ~survive:0.3 () in
  let tracer = Obs.Trace.create () in
  let sampler = Sampler.create ~tracer db.Sim.Db.health in
  Sampler.add_probe sampler "pool.flushes" (fun () ->
      (Pager.Buffer_pool.stats db.Sim.Db.pool).Pager.Buffer_pool.s_flushes);
  let fires = ref [] in
  Health.watch db.Sim.Db.health ~name:"util<0.55" ~signal:Health.Utilization ~op:`Lt
    ~threshold:0.55 (fun f -> fires := f :: !fires);
  let before = Health.utilization db.Sim.Db.health in
  ignore
    (Sim.Scenario.run_reorg
       { Sim.Scenario.default with tracer = Some tracer; sampler = Some sampler; sample_every = 20 }
       db);
  (db, sampler, tracer, List.rev !fires, before)

let test_watch_fires_into_trace () =
  let db, sampler, tracer, fires, before = sampled_run () in
  let snaps = Sampler.snapshots sampler in
  Alcotest.(check bool) "several samples" true (List.length snaps >= 3);
  (* The degraded tree trips the threshold; the callback ran and the fire
     is in both the snapshot stream and the Chrome trace. *)
  Alcotest.(check bool) "watch fired" true (List.length fires >= 1);
  Alcotest.(check bool) "fire visible in a snapshot" true
    (List.exists (fun s -> List.mem "util<0.55" s.Sampler.fired) snaps);
  Alcotest.(check bool) "fire instant in trace" true
    (Obs.Trace.count_named tracer "health.watch-fire" >= 1);
  Alcotest.(check bool) "counter samples in trace" true
    (Obs.Trace.count_named tracer "tree-health" >= List.length snaps);
  (* Logical clocks are strictly monotone and utilization recovers. *)
  let ats = List.map (fun s -> s.Sampler.at) snaps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone clock" true (monotone ats);
  let last = List.nth snaps (List.length snaps - 1) in
  Alcotest.(check bool) "utilization recovered past the threshold" true
    (before < 0.55 && last.Sampler.utilization > 0.55);
  List.iter
    (fun (s : Sampler.snapshot) ->
      Alcotest.(check bool) "utilization in [0,1]" true
        (s.Sampler.utilization >= 0.0 && s.Sampler.utilization <= 1.0))
    snaps;
  check_agrees ~ctx:"after sampled run" db

let test_sampler_probe_deltas () =
  let h = Health.create () in
  Health.set_refresher h (fun _ -> None);
  let v = ref 5 in
  let s = Sampler.create h in
  Sampler.add_probe s "v" (fun () -> !v);
  let s1 = Sampler.sample s in
  v := 12;
  let s2 = Sampler.sample s in
  Alcotest.(check (list (triple string int int))) "first sample: delta from zero"
    [ ("v", 5, 5) ] s1.Sampler.probes;
  Alcotest.(check (list (triple string int int))) "second sample: interval delta"
    [ ("v", 12, 7) ] s2.Sampler.probes;
  Alcotest.(check int) "count" 2 (Sampler.count s)

(* ------------------------------------------------------------------ *)
(* Crash: in-memory knowledge is invalidated, then rebuilt lazily      *)
(* ------------------------------------------------------------------ *)

let test_health_survives_crash () =
  let db, _ = Sim.Scenario.aged ~seed:3 ~n:400 ~f1:0.3 () in
  check_agrees ~ctx:"before crash" db;
  Sim.Db.crash_now db;
  ignore (Reorg.Recovery.restart ~access:db.Sim.Db.access ~config:Reorg.Config.default ());
  check_agrees ~ctx:"after crash + recovery" db

let () =
  Alcotest.run "health"
    [
      ( "tracker",
        [
          Alcotest.test_case "incremental basics" `Quick test_tracker_basics;
          Alcotest.test_case "watch edge-triggering" `Quick test_watch_edge_trigger;
        ] );
      ( "property",
        [
          Alcotest.test_case "matches brute force (seed 1)" `Quick
            (prop_incremental_matches_brute_force 1);
          Alcotest.test_case "matches brute force (seed 2)" `Quick
            (prop_incremental_matches_brute_force 2);
          Alcotest.test_case "matches brute force (seed 3)" `Quick
            (prop_incremental_matches_brute_force 3);
        ] );
      ( "hooks",
        [
          Alcotest.test_case "probe does not clobber hooks" `Quick
            test_probe_does_not_clobber_hooks;
          Alcotest.test_case "hooks compose and remove independently" `Quick
            test_hooks_compose_and_remove_independently;
          Alcotest.test_case "two dbs track independently" `Quick
            test_two_dbs_track_independently;
          Alcotest.test_case "trace and checker leave health alone" `Quick
            test_observers_leave_health_alone;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "watch fires into trace" `Quick test_watch_fires_into_trace;
          Alcotest.test_case "probe deltas" `Quick test_sampler_probe_deltas;
          Alcotest.test_case "health survives crash" `Quick test_health_survives_crash;
        ] );
    ]
