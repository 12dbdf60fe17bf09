(* Crash / restart tests: ARIES-style basics plus the paper's forward
   recovery, including a sweep of crash points across the whole three-pass
   reorganization. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Invariant = Btree.Invariant
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db
module Buffer_pool = Pager.Buffer_pool

let payload = Db.payload_for

let restart db =
  Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.default ()

let test_committed_survive_losers_rollback () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 99 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  Txn_mgr.commit db.Db.mgr t1;
  (* A loser: inserts + a delete that must be rolled back. *)
  let t2 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 100 to 119 do
    Tree.insert db.Db.tree ~txn:t2 ~key:k ~payload:(payload k) ()
  done;
  ignore (Tree.delete db.Db.tree ~txn:t2 50);
  Db.crash_now ~flush_seed:7 db;
  let _, outcome = restart db in
  Alcotest.(check int) "one loser" 1 outcome.Reorg.Recovery.losers_undone;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(List.init 100 (fun k -> (k, payload k)));
  Alcotest.(check bool) "no reorg to resume" true
    (outcome.Reorg.Recovery.resume = Reorg.Recovery.No_reorg)

let test_redo_after_clean_flush () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 49 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  Txn_mgr.commit db.Db.mgr t1;
  (* Nothing flushed at all: redo must rebuild every page from the log. *)
  Db.crash_now db;
  let _, outcome = restart db in
  Alcotest.(check bool) "redo did work" true (outcome.Reorg.Recovery.redo_applied > 0);
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:(List.init 50 (fun k -> (k, payload k)))

let test_uncommitted_not_durable () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 9 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  (* No commit, no force: everything vanishes. *)
  Db.crash_now db;
  let _, _ = restart db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:[]

(* A leaf split is sealed as a nested top action: once its records are
   stable, undoing the transaction whose insert caused it takes back the
   insert and keeps the split, because other transactions may already have
   committed records into the new halves. *)
let test_split_survives_undo () =
  let records = List.init 200 (fun i -> (2 * i, payload (2 * i))) in
  let db = Db.load ~page_size:512 ~fill:0.95 records in
  let leaves_before = (Tree.stats db.Db.tree).Tree.leaf_count in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  let rec insert_until_split key =
    Tree.insert db.Db.tree ~txn:tx ~key ~payload:(payload key) ();
    if (Tree.stats db.Db.tree).Tree.leaf_count = leaves_before then insert_until_split (key + 2)
  in
  insert_until_split 101;
  let split = Tree.leaf_pids db.Db.tree in
  (* The split's records, its seal and the insert reach the stable log; the
     transaction never commits. *)
  Wal.Log.force_all db.Db.log;
  Db.crash_now db;
  let _, outcome = restart db in
  Alcotest.(check int) "the inserting transaction is a loser" 1
    outcome.Reorg.Recovery.losers_undone;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records;
  Alcotest.(check (list int)) "the split survives" split (Tree.leaf_pids db.Db.tree)

(* ---------------- forward recovery of the reorganizer ---------------- *)

let sparse_records n = List.init n (fun i -> (2 * i, payload (2 * i)))

let mk_sparse ?(n = 700) ?(seed = 5) () =
  let records = sparse_records n in
  let db = Db.load ~page_size:512 ~leaf_pages:2048 ~fill:0.3 records in
  let rng = Util.Rng.create seed in
  Workload.Scramble.spread_leaves db.Db.tree rng ~span_factor:1.3;
  Db.flush_all db;
  (db, records)

(* Run the reorganization but crash after [crash_at] scheduler ticks. *)
let crash_reorg_at db crash_at =
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Driver.run ctx);
      finished := true);
  Engine.spawn eng (fun () ->
      Engine.sleep crash_at;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:(crash_at * 31) db;
  !finished

let recover_and_resume db =
  let ctx, outcome = restart db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.run eng;
  (ctx, outcome)

let test_crash_mid_pass1_forward_recovery () =
  let db, records = mk_sparse () in
  let finished = crash_reorg_at db 40 in
  Alcotest.(check bool) "crashed before completion" false finished;
  let ctx, _outcome = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records;
  (* Work finished before the crash is preserved: LK advanced monotonically
     and the resumed run started from it, rather than from scratch. *)
  Alcotest.(check bool) "LK advanced" true (Reorg.Rtable.lk ctx.Reorg.Ctx.rtable > min_int)

let test_crash_point_sweep () =
  (* The gold test: crash at many points through all three passes, recover,
     resume, and require full consistency every time. *)
  let points = [ 5; 15; 30; 60; 100; 150; 220; 300; 400; 550; 700; 900; 1200 ] in
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at * 7) () in
      let finished = crash_reorg_at db crash_at in
      ignore finished;
      let _ctx, _outcome = recover_and_resume db in
      (try Invariant.check ~alloc:db.Db.alloc db.Db.tree
       with Invariant.Violation msg ->
         Alcotest.failf "crash@%d: invariant violated: %s" crash_at msg);
      try Invariant.check_consistent_with db.Db.tree ~expected:records
      with Invariant.Violation msg -> Alcotest.failf "crash@%d: %s" crash_at msg)
    points

let test_double_crash () =
  let db, records = mk_sparse ~n:400 () in
  ignore (crash_reorg_at db 80);
  (* First recovery, then crash again mid-resume. *)
  let ctx, outcome = restart db in
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.spawn eng (fun () ->
      Engine.sleep 50;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:99 db;
  let _ctx, _ = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records

let test_crash_with_concurrent_updaters () =
  (* Crash while both the reorganizer and user transactions are running:
     committed user work must survive, uncommitted must roll back, and the
     reorganization must be resumable. *)
  let db, records = mk_sparse ~n:400 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let committed : (int, string) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace committed k v) records;
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  for w = 0 to 2 do
    Engine.spawn eng (fun () ->
        let rng = Util.Rng.create (500 + w) in
        let continue_ = ref true in
        while !continue_ do
          let tx = Txn_mgr.begin_txn db.Db.mgr in
          (try
             let k = (2 * Util.Rng.int rng 2000) + 1 in
             Btree.Access.insert db.Db.access ~txn:tx ~key:k ~payload:(payload k);
             Txn_mgr.commit db.Db.mgr tx;
             Hashtbl.replace committed k (payload k)
           with
          | Transact.Lock_client.Deadlock_victim | Tree.Duplicate_key _ ->
            Txn_mgr.abort db.Db.mgr tx);
          Engine.sleep 3;
          if Engine.stopped eng then continue_ := false
        done)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 120;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:3 db;
  let _ctx, _ = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) committed [])

let test_work_preserved_vs_rollback () =
  (* §8: forward recovery preserves the interrupted unit's work, while the
     Tandem baseline rolls its in-flight transaction back.  Measure: after
     an identical crash, our LK (completed prefix) is retained and the
     resumed run does not repeat completed units. *)
  let db, _records = mk_sparse ~n:400 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  Engine.spawn eng (fun () ->
      Engine.sleep 60;
      Engine.stop eng);
  Engine.run eng;
  let units_before = (Reorg.Metrics.units ctx.Reorg.Ctx.metrics) in
  Db.crash_now ~flush_seed:13 db;
  let ctx2, outcome = restart db in
  let lk = Reorg.Rtable.lk ctx2.Reorg.Ctx.rtable in
  Alcotest.(check bool) "some units had finished" true (units_before > 0);
  Alcotest.(check bool) "completed work survives (LK > -inf)" true (lk > min_int);
  (* Resume and ensure total progress completes. *)
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
  Engine.run eng2;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_crash_with_checkpointer () =
  (* Frequent checkpoints while the reorganizer and users run: restart
     analysis starts from the latest stable checkpoint (carrying the §5
     system table) and everything still recovers exactly. *)
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at + 1) () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      let finished = ref false in
      Engine.spawn eng (fun () ->
          ignore (Reorg.Driver.run ctx);
          finished := true);
      Sim.Checkpointer.spawn ~ctx eng ~db ~every:20 ~stop:(fun () -> !finished);
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:crash_at db;
      (* A checkpoint should be visible to analysis. *)
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d: stable checkpoint exists" crash_at)
        true
        (crash_at < 25 || Wal.Log.last_checkpoint db.Db.log <> None);
      let _ctx, _ = recover_and_resume db in
      Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Invariant.check_consistent_with db.Db.tree ~expected:records)
    [ 30; 90; 200; 500 ]

let test_crash_point_sweep_lambda () =
  (* The crash sweep again, with the lambda-switch variant active. *)
  let config = { Reorg.Config.default with lambda_switch = true } in
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at * 13) () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:(crash_at * 5) db;
      let ctx2, outcome = Reorg.Recovery.restart ~access:db.Db.access ~config () in
      let eng2 = Engine.create () in
      Engine.spawn eng2 (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
      Engine.run eng2;
      (try
         Invariant.check ~alloc:db.Db.alloc db.Db.tree;
         Invariant.check_consistent_with db.Db.tree ~expected:records
       with Invariant.Violation msg -> Alcotest.failf "lambda crash@%d: %s" crash_at msg))
    [ 20; 80; 200; 350; 500; 800 ]

(* §5.2 give-up cut by a crash, on one store: a user holding S on the
   unit's (first) base page asks for X on a neighbour the unit has locked,
   so the unit's R -> X upgrade closes a deadlock and the reorganizer (the
   preferred victim) gives up.  The machine dies once the give-up's first
   reverse MOVE (the unit's [reverse_at]-th MOVE) is stable — with
   [flush_first], only when the give-up is about to end, after the unit's
   first page went back to disk (with [flush_exchanged], both pages also
   reached disk exchanged while the unit waited).  Restart must finish the give-up,
   not the unit: it only logs END, every record and the leaf chain are as
   before, and a fresh destination is free again. *)
exception Crash_here

let crash_inside_give_up ?(flush_first = false) ?(flush_exchanged = false) ~unit ~reverse_at () =
  let db, records = mk_sparse ~n:200 () in
  let leaves = Tree.leaf_pids db.Db.tree in
  let base_of pid =
    let key = Option.get (Btree.Leaf.min_key (Tree.page db.Db.tree pid)) in
    Option.get (Tree.parent_of_leaf db.Db.tree key)
  in
  let plan = unit db leaves base_of in
  let base =
    match plan with
    | Reorg.Unit_exec.Move { base; _ } -> base
    | Reorg.Unit_exec.Swap { a_base; _ } -> a_base
    | Reorg.Unit_exec.Compact { base; _ } -> base
  in
  let moves = ref [] in
  let live = ref true in
  (* [live]: recovery's events reach this subscriber too; only the live
     unit may crash the machine. *)
  Obs.Bus.subscribe db.Db.bus [ Reorg.Prot.topic ] (fun ev ->
      match ev with
      | _ when not !live -> ()
      | Reorg.Prot.Unit_move { org; dest; _ } ->
        moves := (org, dest) :: !moves;
        if List.length !moves = reverse_at && not flush_first then begin
          Wal.Log.force_all db.Db.log;
          raise Crash_here
        end
      | Reorg.Prot.Unit_end _ when flush_first && List.length !moves = reverse_at ->
        (* The WAL rule forces the log up to the reverse MOVE, not the END. *)
        Pager.Buffer_pool.flush_page db.Db.pool (fst (List.hd (List.rev !moves)));
        raise Crash_here
      | _ -> ());
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let user = Txn_mgr.fresh_owner db.Db.mgr in
  Engine.spawn eng (fun () ->
      Transact.Lock_client.acquire db.Db.locks ~txn:user (Lockmgr.Resource.Page base)
        Lockmgr.Mode.S;
      Engine.sleep 5;
      (match plan with
      | Reorg.Unit_exec.Swap { a; b; _ } when flush_exchanged ->
        List.iter (Pager.Buffer_pool.flush_page db.Db.pool) [ a; b ]
      | _ -> ());
      Transact.Lock_client.acquire db.Db.locks ~txn:user
        (Lockmgr.Resource.Page (List.nth leaves 2))
        Lockmgr.Mode.X);
  Engine.spawn eng (fun () ->
      Engine.sleep 1;
      ignore (Reorg.Unit_exec.execute ctx plan));
  (match Engine.run eng with
  | () -> Alcotest.fail "the unit did not give up"
  | exception Crash_here -> ());
  live := false;
  Db.crash_now db;
  let stable = ref [] in
  Wal.Log.iter db.Db.log (fun _ body ->
      match body with
      | Wal.Record.Reorg_move { org; dest; _ } -> stable := (org, dest) :: !stable
      | _ -> ());
  Alcotest.(check (list (pair int int))) "stable MOVEs: the unit's and one reverse" !moves !stable;
  let events = ref [] in
  Obs.Bus.subscribe db.Db.bus [ Reorg.Prot.topic ] (function
    | Reorg.Prot.Unit_recover _ -> events := "recover" :: !events
    | Reorg.Prot.Unit_move _ -> events := "move" :: !events
    | Reorg.Prot.Unit_modify _ -> events := "modify" :: !events
    | Reorg.Prot.Unit_end _ -> events := "end" :: !events
    | _ -> ());
  let ctx, outcome = Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.default () in
  Alcotest.(check int) "one unit finished" 1 outcome.Reorg.Recovery.units_finished;
  Alcotest.(check (list string)) "recovery only ends the unit" [ "recover"; "end" ]
    (List.rev !events);
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records;
  Alcotest.(check (list int)) "leaf chain as before" leaves (Tree.leaf_pids db.Db.tree);
  (match plan with
  | Reorg.Unit_exec.Move { dest; _ } ->
    Alcotest.(check bool) "fresh destination free" true (Pager.Alloc.is_free db.Db.alloc dest)
  | _ -> ());
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.run eng;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records

(* A move logs one forward MOVE, so its give-up's first reverse is the
   second MOVE; a swap's exchange logs two. *)
let test_crash_inside_move_give_up =
  crash_inside_give_up ~reverse_at:2 ~unit:(fun db leaves base_of ->
      let org = List.nth leaves 1 in
      let lo, hi = Pager.Alloc.leaf_zone db.Db.alloc in
      let dest = Option.get (Pager.Alloc.free_in_range db.Db.alloc ~lo ~hi) in
      Reorg.Unit_exec.Move { base = base_of org; org; dest })

let swap_unit _ leaves base_of =
  let a = List.nth leaves 1 and b = List.nth leaves 5 in
  Reorg.Unit_exec.Swap { a_base = base_of a; a; b_base = base_of b; b }

let test_crash_inside_swap_give_up = crash_inside_give_up ~reverse_at:3 ~unit:swap_unit

(* The swap's first page reached disk with its own records back while the
   second still has its image from before the exchange: redo must not
   overwrite that image with the exchanged contents. *)
let test_crash_after_swap_give_up_flush =
  crash_inside_give_up ~flush_first:true ~reverse_at:3 ~unit:swap_unit

(* Both pages reached disk exchanged before the give-up: the first page's
   own records may then reach disk only after the second's, or no image of
   the second page's records (the exchange logged only its keys) is left. *)
let test_crash_after_exchanged_swap_give_up_flush =
  crash_inside_give_up ~flush_first:true ~flush_exchanged:true ~reverse_at:3 ~unit:swap_unit

(* A move whose BEGIN and destination format are stable but whose MOVE is
   not: only the format's record names the destination, and restart must
   free it as the give-up would, not leave it allocated and unreachable. *)
let test_crash_before_first_move () =
  let db, records = mk_sparse ~n:200 () in
  let org = List.nth (Tree.leaf_pids db.Db.tree) 1 in
  let key = Option.get (Btree.Leaf.min_key (Tree.page db.Db.tree org)) in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree key) in
  let lo, hi = Pager.Alloc.leaf_zone db.Db.alloc in
  let dest = Option.get (Pager.Alloc.free_in_range db.Db.alloc ~lo ~hi) in
  let live = ref true in
  Obs.Bus.subscribe db.Db.bus [ Reorg.Prot.topic ] (function
    | Reorg.Prot.Unit_move { lsn; _ } when !live ->
      (* Everything below the MOVE reaches the stable log; the MOVE does not. *)
      Wal.Log.force db.Db.log (lsn - 1);
      raise Crash_here
    | _ -> ());
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Unit_exec.execute ctx (Reorg.Unit_exec.Move { base; org; dest })));
  (match Engine.run eng with
  | () -> Alcotest.fail "the unit did not reach its MOVE"
  | exception Crash_here -> ());
  live := false;
  Db.crash_now db;
  let begun = ref false and formats = ref 0 and moves = ref 0 in
  Wal.Log.iter db.Db.log (fun _ body ->
      match body with
      | Wal.Record.Reorg_begin _ -> begun := true
      | Wal.Record.Reorg_move _ -> incr moves
      | Wal.Record.Update { page; off = 0; _ } when !begun && page = dest -> incr formats
      | _ -> ());
  Alcotest.(check (pair int int)) "stable: the format, no MOVE" (1, 0) (!formats, !moves);
  ignore (restart db);
  Alcotest.(check bool) "destination free" true (Pager.Alloc.is_free db.Db.alloc dest);
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records

(* A swap cut between its two header writes: the stable log ends with the
   write of b's header, so after redo b's header already describes a's old
   place while a's still describes its own.  Recovery must take b's
   pre-swap links from that write's before-image: read off b's new header,
   they would point a back at b and close the leaf chain into a loop. *)
let test_crash_between_swap_headers () =
  let db, records = mk_sparse ~n:200 () in
  let leaves = Tree.leaf_pids db.Db.tree in
  let a = List.nth leaves 1 and b = List.nth leaves 5 in
  let base_of pid =
    let key = Option.get (Btree.Leaf.min_key (Tree.page db.Db.tree pid)) in
    Option.get (Tree.parent_of_leaf db.Db.tree key)
  in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore
        (Reorg.Unit_exec.execute ctx
           (Reorg.Unit_exec.Swap { a_base = base_of a; a; b_base = base_of b; b })));
  Engine.run eng;
  (* The unit ran in the volatile tail; keep it up to the write of b's
     header. *)
  let begun = ref false and cut = ref None in
  for lsn = Wal.Log.flushed_lsn db.Db.log + 1 to Wal.Log.head_lsn db.Db.log do
    match Wal.Log.read db.Db.log lsn with
    | Wal.Record.Reorg_begin _ -> begun := true
    | Wal.Record.Update { page; off; _ }
      when !begun && !cut = None && page = b && off = Btree.Layout.off_low_mark ->
      cut := Some lsn
    | _ -> ()
  done;
  Wal.Log.force db.Db.log (Option.get !cut);
  Db.crash_now db;
  let headers = ref [] in
  Wal.Log.iter db.Db.log (fun _ body ->
      match body with
      | Wal.Record.Update { page; off; _ } when off = Btree.Layout.off_low_mark && (page = a || page = b)
        ->
        headers := page :: !headers
      | Wal.Record.Reorg_end _ -> Alcotest.fail "the unit's END is stable"
      | _ -> ());
  Alcotest.(check bool) "b's header write is the last stable one" true (List.hd !headers = b);
  let ctx, outcome = restart db in
  (* Walk the chain with a bound, so a loop fails instead of hanging. *)
  let chain =
    let rec go pid n acc =
      if n = 0 then List.rev acc
      else
        match Btree.Leaf.next (Tree.page db.Db.tree pid) with
        | Some next -> go next (n - 1) (next :: acc)
        | None -> List.rev acc
    in
    let first = Tree.first_leaf db.Db.tree in
    go first (List.length leaves) [ first ]
  in
  let swapped = List.map (fun p -> if p = a then b else if p = b then a else p) leaves in
  Alcotest.(check (list int)) "leaf chain with a and b exchanged" swapped chain;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records;
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.run eng;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records

(* Property: for ANY (scenario seed, crash tick, flush pattern), crash +
   restart + resume ends fully consistent with all records intact. *)
let crash_anywhere_prop =
  QCheck.Test.make ~name:"crash anywhere, recover, resume: consistent" ~count:30
    QCheck.(
      make
        Gen.(
          triple (int_bound 1000) (int_range 5 800) (int_bound 1000)))
    (fun (seed, crash_at, flush_seed) ->
      let db, records = mk_sparse ~n:300 ~seed () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed db;
      let ctx2, outcome = restart db in
      let eng2 = Engine.create () in
      Engine.spawn eng2 (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
      Engine.run eng2;
      (try
         Invariant.check ~alloc:db.Db.alloc db.Db.tree;
         Invariant.check_consistent_with db.Db.tree ~expected:records
       with Invariant.Violation m ->
         QCheck.Test.fail_reportf "seed=%d crash=%d flush=%d: %s" seed crash_at flush_seed m);
      true)

let () =
  Alcotest.run "recovery"
    [
      ( "aries basics",
        [
          Alcotest.test_case "committed survive, losers roll back" `Quick
            test_committed_survive_losers_rollback;
          Alcotest.test_case "redo from log" `Quick test_redo_after_clean_flush;
          Alcotest.test_case "uncommitted not durable" `Quick test_uncommitted_not_durable;
          Alcotest.test_case "split survives its transaction's undo" `Quick
            test_split_survives_undo;
        ] );
      ( "forward recovery",
        [
          Alcotest.test_case "crash mid-pass1" `Quick test_crash_mid_pass1_forward_recovery;
          Alcotest.test_case "crash point sweep" `Slow test_crash_point_sweep;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "crash with updaters" `Quick test_crash_with_concurrent_updaters;
          Alcotest.test_case "work preserved" `Quick test_work_preserved_vs_rollback;
          Alcotest.test_case "crash with checkpointer" `Quick test_crash_with_checkpointer;
          Alcotest.test_case "crash sweep (lambda)" `Quick test_crash_point_sweep_lambda;
          Alcotest.test_case "crash inside a give-up" `Quick test_crash_inside_move_give_up;
          Alcotest.test_case "crash inside a swap give-up" `Quick test_crash_inside_swap_give_up;
          Alcotest.test_case "crash after a swap give-up's first flush" `Quick
            test_crash_after_swap_give_up_flush;
          Alcotest.test_case "crash after an exchanged swap's give-up flush" `Quick
            test_crash_after_exchanged_swap_give_up_flush;
          Alcotest.test_case "crash between a swap's header writes" `Quick
            test_crash_between_swap_headers;
          Alcotest.test_case "crash before a move's first MOVE" `Quick
            test_crash_before_first_move;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest crash_anywhere_prop ]);
    ]
