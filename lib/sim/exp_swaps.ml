(* Experiment E1 — §6.1 / [ZS95]: "our algorithm can greatly reduce the
   number of swaps needed at the second pass."

   Sweep the initial fill factor f1 over an aged file and compare the
   Find-Free-Space policies.  Swaps are the expensive relocation (they lock
   two parents and must log at least one full page); moves are the cheap
   one.  Immediate deallocation (careful_writing off) is used so freed pages
   are visible to all policies alike — isolating the placement decision. *)

let run ?(n = 2500) () =
  let table =
    Util.Table.create
      ~title:
        "E1 — pass-2 swaps by Find-Free-Space policy (aged file, f2 = 0.9)\n\
         paper = first free page in (L, C); first-free = smallest free page anywhere;\n\
         no-new-place = always compact in place"
      [ ("f1", Util.Table.Right); ("policy", Util.Table.Left); ("units", Util.Table.Right);
        ("swaps", Util.Table.Right); ("moves", Util.Table.Right);
        ("swaps vs paper", Util.Table.Right); ("reorg log bytes", Util.Table.Right) ]
  in
  List.iter
    (fun f1 ->
      let results =
        List.map
          (fun (name, heuristic) ->
            let db, expected = Scenario.aged ~seed:31 ~n ~f1 () in
            let config =
              { Reorg.Config.paper with heuristic; careful_writing = false; shrink_pass = false }
            in
            let { Scenario.ctx; report = r; _ } =
              Scenario.run_reorg { Scenario.default with config } db
            in
            Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
            Btree.Invariant.check_consistent_with db.Db.tree ~expected;
            (name, r, (Reorg.Metrics.log_bytes ctx.Reorg.Ctx.metrics)))
          [
            ("paper", Reorg.Config.Paper_heuristic);
            ("first-free", Reorg.Config.First_free);
            ("no-new-place", Reorg.Config.No_new_place);
          ]
      in
      let paper_swaps =
        match results with (_, r, _) :: _ -> r.Reorg.Driver.swaps | [] -> 0
      in
      List.iter
        (fun (name, r, log_bytes) ->
          Util.Table.add_row table
            [ Util.Table.float f1; Util.Table.text name; Util.Table.num r.Reorg.Driver.pass1_units;
              Util.Table.num r.Reorg.Driver.swaps; Util.Table.num r.Reorg.Driver.moves;
              Util.Table.ratio
                (Util.Stats.ratio (float_of_int r.Reorg.Driver.swaps)
                   (float_of_int paper_swaps));
              Util.Table.bytes log_bytes ])
        results;
      Util.Table.add_rule table)
    [ 0.2; 0.3; 0.4 ];
  table
