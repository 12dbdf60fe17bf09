(* §6 trade-off: "We choose to construct one new leaf page at a time ...
   While we could construct more than one page, it would require the
   reorganization unit to hold locks longer, thus it will block more user
   transactions."

   Sweep the lock-envelope size (pages constructed per base-lock hold) with
   concurrent updaters and measure exactly that: user blocked time and
   give-ups versus reorganization efficiency. *)

let run_one ~unit_pages =
  let db, expected = Scenario.aged ~seed:59 ~n:1500 ~f1:0.25 () in
  (* Split-heavy, clustered updates: the envelope's extended base-lock hold
     is felt by updaters needing the base page (splits / free-at-empty). *)
  let r =
    Scenario.run_reorg
      { Scenario.default with
        config = { Reorg.Config.paper with unit_pages; shrink_pass = false }; users = 8;
        user_mix = { Workload.Mix.update_heavy with insert_pct = 0.6; delete_pct = 0.2 };
        user_ops = 100_000; user_key_space = Some 400; seed = 13 }
      db
  in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  (* Original records must be readable unless a user deleted them. *)
  List.iter
    (fun (k, v) ->
      match Btree.Tree.search db.Db.tree k with
      | Some v' -> assert (v = v')
      | None -> ())
    expected;
  (r.Scenario.ticks, r.Scenario.ctx.Reorg.Ctx.metrics, r.Scenario.users)

let run () =
  let table =
    Util.Table.create
      ~title:
        "§6 unit size — pages constructed per base-lock envelope vs user impact\n\
         (8 update-heavy users; pass 1+2 only)"
      [ ("pages/envelope", Util.Table.Right); ("reorg ticks", Util.Table.Right);
        ("units", Util.Table.Right); ("user blocked ticks", Util.Table.Right);
        ("blocked/op", Util.Table.Right); ("user give-ups", Util.Table.Right);
        ("user ops done", Util.Table.Right) ]
  in
  List.iter
    (fun unit_pages ->
      let ticks, metrics, stats = run_one ~unit_pages in
      Util.Table.add_row table
        [ Util.Table.num unit_pages; Util.Table.int ticks;
          Util.Table.num (Reorg.Metrics.units metrics);
          Util.Table.int stats.Workload.Mix.blocked_ticks;
          Util.Table.float
            (Util.Stats.ratio
               (float_of_int stats.Workload.Mix.blocked_ticks)
               (float_of_int stats.Workload.Mix.committed));
          Util.Table.num stats.Workload.Mix.give_ups;
          Util.Table.int stats.Workload.Mix.committed ])
    [ 1; 2; 4; 8 ];
  table
