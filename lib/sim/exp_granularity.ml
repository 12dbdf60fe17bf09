(* Experiment E6 — §8 "better granularity / less transaction overhead":
   the paper's unit compacts d = ceil(f2/f1) pages at once, while [Smi90]
   handles exactly two blocks per transaction, each a full transaction with
   its own file lock and commit force.

   Reported, for the same initial tree: operations/transactions needed,
   pages handled per operation, lock acquisitions, and log forces. *)

module Tree = Btree.Tree

let run () =
  let table =
    Util.Table.create
      ~title:"E6 — reorganization granularity and overhead (f2 = 0.9)"
      [ ("f1", Util.Table.Right); ("method", Util.Table.Left);
        ("ops/units", Util.Table.Right); ("pages per op", Util.Table.Right);
        ("d = f2/f1 (paper)", Util.Table.Right); ("lock acquisitions", Util.Table.Right);
        ("commit forces", Util.Table.Right) ]
  in
  List.iter
    (fun f1 ->
      (* Ours. *)
      let db, _ = Scenario.aged ~seed:67 ~n:1500 ~f1 () in
      Lockmgr.Lock_mgr.reset_stats db.Db.locks;
      let forces0 = (Wal.Log.stats db.Db.log).Wal.Log.forced in
      let config = { Reorg.Config.paper with swap_pass = false; shrink_pass = false } in
      let { Scenario.ctx; report = r; _ } =
        Scenario.run_reorg { Scenario.default with config } db
      in
      let m = ctx.Reorg.Ctx.metrics in
      let locks = (Lockmgr.Lock_mgr.stats db.Db.locks).Lockmgr.Lock_mgr.acquires in
      let forces = (Wal.Log.stats db.Db.log).Wal.Log.forced - forces0 in
      let pages_per_unit =
        Util.Stats.ratio
          (float_of_int ((Reorg.Metrics.pages_compacted m) + (Reorg.Metrics.units m)))
          (float_of_int (Reorg.Metrics.units m))
      in
      Util.Table.add_row table
        [ Util.Table.float f1; Util.Table.text "paper (one process)";
          Util.Table.num r.Reorg.Driver.pass1_units; Util.Table.float pages_per_unit;
          Util.Table.float (0.9 /. f1); Util.Table.int locks; Util.Table.int forces ];
      (* Tandem. *)
      let db, _ = Scenario.aged ~seed:67 ~n:1500 ~f1 () in
      Lockmgr.Lock_mgr.reset_stats db.Db.locks;
      let forces0 = (Wal.Log.stats db.Db.log).Wal.Log.forced in
      let eng = Sched.Engine.create () in
      let stats = Baseline.Tandem.create_stats () in
      Sched.Engine.spawn eng (fun () ->
          Baseline.Tandem.compact ~access:db.Db.access ~f2:0.9 stats);
      Sched.Engine.run eng;
      let locks = (Lockmgr.Lock_mgr.stats db.Db.locks).Lockmgr.Lock_mgr.acquires in
      let forces = (Wal.Log.stats db.Db.log).Wal.Log.forced - forces0 in
      Util.Table.add_row table
        [ Util.Table.float f1; Util.Table.text "tandem (txn per op)";
          Util.Table.num stats.Baseline.Tandem.ops; Util.Table.float ~digits:1 2.0;
          Util.Table.none; Util.Table.int locks; Util.Table.int forces ];
      Util.Table.add_rule table)
    [ 0.15; 0.3; 0.45 ];
  table
