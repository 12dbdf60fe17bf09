(* Experiment E4 — §5 log volume: careful writing lets MOVE records carry
   keys only; without it they carry full record contents.  Swaps always log
   at least one full page.  Log size is a first-class cost in the paper
   ("since log size is a concern...").

   Reported: reorganization log bytes/records for careful vs full-content
   logging, pass 1 only (moves) and with pass 2 (swaps included). *)

let measure ~careful ~swap_pass =
  let db, expected = Scenario.aged ~seed:53 ~n:1500 ~f1:0.3 () in
  let config =
    {
      Reorg.Config.default with
      careful_writing = careful;
      swap_pass;
      shrink_pass = false;
    }
  in
  let { Scenario.ctx; report = r; _ } = Scenario.run_reorg { Scenario.default with config } db in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  (ctx.Reorg.Ctx.metrics, r)

let run () =
  let table =
    Util.Table.create
      ~title:
        "E4 — reorganization log volume: careful writing (keys only) vs full contents"
      [ ("configuration", Util.Table.Left); ("units", Util.Table.Right);
        ("swaps", Util.Table.Right); ("records moved", Util.Table.Right);
        ("log records", Util.Table.Right); ("log bytes", Util.Table.Right);
        ("bytes/record moved", Util.Table.Right) ]
  in
  List.iter
    (fun (name, careful, swap_pass) ->
      let m, r = measure ~careful ~swap_pass in
      Util.Table.add_row table
        [ Util.Table.text name; Util.Table.num r.Reorg.Driver.pass1_units;
          Util.Table.num r.Reorg.Driver.swaps;
          Util.Table.int (Reorg.Metrics.records_moved m);
          Util.Table.int (Reorg.Metrics.log_records m);
          Util.Table.bytes (Reorg.Metrics.log_bytes m);
          Util.Table.float
            (Util.Stats.ratio
               (float_of_int (Reorg.Metrics.log_bytes m))
               (float_of_int (Reorg.Metrics.records_moved m))) ])
    [
      ("careful writing, pass 1 only", true, false);
      ("full contents,   pass 1 only", false, false);
      ("careful writing, passes 1+2", true, true);
      ("full contents,   passes 1+2", false, true);
    ];
  table
