(* Experiment E7 — pass 3 shrinks the tree, and while it runs the
   reorganizer holds only one S lock (on the base page being read) plus the
   side-file locks — the availability argument of §7/§7.5.

   A sampler process records the maximum number of page locks the
   reorganizer holds concurrently during the internal-page rebuild. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Lock_mgr = Lockmgr.Lock_mgr

let run () =
  let table =
    Util.Table.create
      ~title:
        "E7 — pass-3 shrink: height reduction and reorganizer lock footprint\n\
         (max page locks held by the reorganizer while rebuilding the upper levels)"
      [ ("records", Util.Table.Right); ("f1", Util.Table.Right);
        ("height before", Util.Table.Right); ("height after", Util.Table.Right);
        ("internal pages before", Util.Table.Right); ("after", Util.Table.Right);
        ("max reorg page locks in pass 3", Util.Table.Right) ]
  in
  List.iter
    (fun (n, f1, page_size) ->
      let db, expected = Scenario.aged ~page_size ~leaf_pages:16384 ~seed:71 ~n ~f1 () in
      let before = Tree.stats db.Db.tree in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      let max_locks = ref 0 in
      let owner = ctx.Reorg.Ctx.actor.Transact.Txn.id in
      Engine.spawn eng (fun () ->
          ignore (Reorg.Pass1.run ctx);
          ignore (Reorg.Pass2.run ctx);
          (* Track the reorganizer's lock high-water mark during pass 3
             only: the availability claim is about the rebuild phase. *)
          Lock_mgr.reset_max_locked db.Db.locks ~owner;
          ignore (Reorg.Pass3.run ctx ());
          max_locks := Lock_mgr.max_locked_count db.Db.locks ~owner);
      Engine.run eng;
      Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Btree.Invariant.check_consistent_with db.Db.tree ~expected;
      let after = Tree.stats db.Db.tree in
      Util.Table.add_row table
        [ Util.Table.int n; Util.Table.float f1;
          Util.Table.num before.Tree.height; Util.Table.num after.Tree.height;
          Util.Table.num before.Tree.internal_count; Util.Table.num after.Tree.internal_count;
          Util.Table.num !max_locks ])
    [ (1500, 0.3, 512); (4000, 0.15, 256); (6000, 0.12, 256) ];
  table
