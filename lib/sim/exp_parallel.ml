(* The paper's stated future work: "exploration of parallelism in
   reorganization."

   Pass 1 is range-partitioned across N worker processes, each with its own
   lock identity and unit-id lattice.  With io_pacing > 0 (each unit pays a
   simulated I/O sleep), the workers overlap their I/O and pass 1's elapsed
   time shrinks; total work (units) stays the same, and concurrent readers
   keep reading throughout. *)

let run_one ~workers =
  let db, expected = Scenario.aged ~seed:71 ~n:2500 ~f1:0.25 () in
  let { Scenario.ctx; users; reorg_ticks; _ } =
    Scenario.run_reorg
      { Scenario.default with
        config =
          { Reorg.Config.default with io_pacing = 4; swap_pass = false; shrink_pass = false };
        pass1_workers = workers; users = 4; user_mix = Workload.Mix.read_only;
        user_ops = 100_000; user_key_space = Some 2500; seed = 5 }
      db
  in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  (* The reorganizer is the run's first process: it starts at tick 1. *)
  (reorg_ticks - 1, Reorg.Metrics.units ctx.Reorg.Ctx.metrics, users)

let run () =
  let table =
    Util.Table.create
      ~title:
        "Future work — parallel pass 1 (range-partitioned workers; unit I/O\n\
         pacing 4 ticks; 4 concurrent readers)"
      [ ("workers", Util.Table.Right); ("pass-1 ticks", Util.Table.Right);
        ("speedup", Util.Table.Right); ("units", Util.Table.Right);
        ("reader ops done", Util.Table.Right); ("reader give-ups", Util.Table.Right) ]
  in
  let base = ref 0.0 in
  List.iter
    (fun workers ->
      let elapsed, units, stats = run_one ~workers in
      if workers = 1 then base := float_of_int elapsed;
      Util.Table.add_row table
        [ Util.Table.num workers; Util.Table.int elapsed;
          Util.Table.ratio (Util.Stats.ratio !base (float_of_int elapsed));
          Util.Table.num units; Util.Table.int stats.Workload.Mix.committed;
          Util.Table.num stats.Workload.Mix.give_ups ])
    [ 1; 2; 4; 8 ];
  table
