(* Experiment E8 — §7.4 the switch: its stall is bounded by the side-file
   residue accumulated while waiting for the X lock, and long old-tree
   transactions can be forced to abort after the time limit.

   We vary the concurrent update rate and measure switch latency, side-file
   entries caught up, and forced aborts. *)

module Engine = Sched.Engine
module Tree = Btree.Tree

let run_one ?(lambda = false) ~updaters ~think ~switch_wait () =
  let db, _ = Scenario.aged ~seed:83 ~n:4000 ~f1:0.3 () in
  (* scan_pacing models the I/O of reading each base page: a slower scan
     means more update traffic lands behind the cursor. *)
  let config =
    { Reorg.Config.paper with switch_wait; scan_pacing = 12; lambda_switch = lambda }
  in
  Scenario.arm_olc ~config db;
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config () in
  let eng = Engine.create () in
  let finished = ref false in
  let in_pass3 = ref false in
  let switch_started = ref 0 and switch_ended = ref 0 in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Pass1.run ctx);
      ignore (Reorg.Pass2.run ctx);
      switch_started := Engine.current_time ();
      in_pass3 := true;
      ignore (Reorg.Pass3.run ctx ());
      switch_ended := Engine.current_time ();
      finished := true);
  (* Users start hammering exactly when pass 3 starts, split-heavy. *)
  let mix = { Workload.Mix.update_heavy with insert_pct = 0.6; delete_pct = 0.2 } in
  let stats =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:7 ~users:updaters
      ~ops_per_user:100_000 ~think ~key_space:500
      ~start:(fun () -> !in_pass3)
      ~stop:(fun () -> !finished)
      ~mix ()
  in
  Engine.run eng;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  let m = ctx.Reorg.Ctx.metrics in
  ( !switch_ended - !switch_started,
    (Reorg.Metrics.side_entries m),
    (Reorg.Metrics.forced_aborts m),
    stats.Workload.Mix.committed )

let run () =
  let table =
    Util.Table.create
      ~title:
        "E8 — pass-3 + switch under concurrent updates (switch_wait = time limit\n\
         before old-tree transactions are forced to abort)"
      [ ("variant", Util.Table.Left); ("updaters", Util.Table.Right);
        ("think ticks", Util.Table.Right); ("pass-3 ticks", Util.Table.Right);
        ("side entries applied", Util.Table.Right); ("forced aborts", Util.Table.Right);
        ("user ops done", Util.Table.Right) ]
  in
  List.iter
    (fun (updaters, think) ->
      List.iter
        (fun (variant, lambda) ->
          let ticks, side, aborts, ops = run_one ~lambda ~updaters ~think ~switch_wait:150 () in
          Util.Table.add_row table
            [ Util.Table.text variant; Util.Table.num updaters; Util.Table.num think;
              Util.Table.int ticks; Util.Table.num side; Util.Table.num aborts;
              Util.Table.int ops ])
        [ ("paper", false); ("lambda-tree", true) ])
    [ (0, 1); (2, 4); (4, 2); (8, 1); (12, 0) ];
  table
