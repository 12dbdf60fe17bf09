(* Experiment E3 — §5.1/§8 "better recovery method": after a crash in the
   middle of reorganization, forward recovery finishes the interrupted unit
   and resumes from LK, while the Tandem baseline rolls its in-flight
   transaction back and retains no reorganization cursor.

   We crash both methods at the same scheduler tick, recover, and report how
   much reorganization work survived and how much had to be repeated. *)

module Engine = Sched.Engine
module Tree = Btree.Tree

let crash_ours ~crash_at =
  let db, expected = Scenario.aged ~seed:47 ~n:1200 ~f1:0.3 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.paper () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  Engine.spawn eng (fun () ->
      Engine.sleep crash_at;
      Engine.stop eng);
  Engine.run eng;
  let units_before = (Reorg.Metrics.units ctx.Reorg.Ctx.metrics) in
  Db.crash_now ~flush_seed:(crash_at * 3) db;
  let ctx2, outcome = Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.paper () in
  let lk = Reorg.Rtable.lk ctx2.Reorg.Ctx.rtable in
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () -> ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
  Engine.run eng2;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  let units_after_resume = (Reorg.Metrics.units ctx2.Reorg.Ctx.metrics) in
  ( units_before,
    (if lk > min_int then units_before else 0),
    units_after_resume,
    (match outcome.Reorg.Recovery.finished_unit with Some _ -> 1 | None -> 0) )

let crash_tandem ~crash_at =
  let db, _expected = Scenario.aged ~seed:47 ~n:1200 ~f1:0.3 () in
  let stats = Baseline.Tandem.create_stats () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Baseline.Tandem.compact ~access:db.Db.access ~f2:0.9 stats;
      Baseline.Tandem.order_leaves ~access:db.Db.access stats);
  Engine.spawn eng (fun () ->
      Engine.sleep crash_at;
      Engine.stop eng);
  Engine.run eng;
  let ops_before = stats.Baseline.Tandem.ops in
  Db.crash_now ~flush_seed:(crash_at * 3) db;
  (* Tandem recovery: ordinary restart; the in-flight operation rolls back
     and the whole pass restarts from the front (its scan has no durable
     cursor).  The completed merges whose pages were committed survive as
     tree state, but the reorganizer re-scans everything. *)
  let _ctx, _outcome = Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.paper () in
  let stats2 = Baseline.Tandem.create_stats () in
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () ->
      Baseline.Tandem.compact ~access:db.Db.access ~f2:0.9 stats2;
      Baseline.Tandem.order_leaves ~access:db.Db.access stats2);
  Engine.run eng2;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  (ops_before, stats2.Baseline.Tandem.ops)

let run () =
  let table =
    Util.Table.create
      ~title:
        "E3 — crash during reorganization: forward recovery vs rollback\n\
         (work before crash is preserved by forward recovery; the in-flight\n\
         unit is finished, not undone)"
      [ ("crash tick", Util.Table.Right); ("method", Util.Table.Left);
        ("units/ops before crash", Util.Table.Right); ("preserved", Util.Table.Right);
        ("in-flight unit", Util.Table.Left); ("work after restart", Util.Table.Right) ]
  in
  List.iter
    (fun crash_at ->
      let before, preserved, after_resume, finished = crash_ours ~crash_at in
      Util.Table.add_row table
        [ Util.Table.num crash_at; Util.Table.text "paper (forward recovery)";
          Util.Table.num before; Util.Table.num preserved;
          Util.Table.text (if finished > 0 then "finished forward" else "none in flight");
          Util.Table.num after_resume ];
      let t_before, t_after = crash_tandem ~crash_at in
      Util.Table.add_row table
        [ Util.Table.num crash_at; Util.Table.text "tandem (rollback)"; Util.Table.num t_before;
          Util.Table.text "state only"; Util.Table.text "rolled back"; Util.Table.num t_after ];
      Util.Table.add_rule table)
    [ 40; 120; 300 ];
  table
