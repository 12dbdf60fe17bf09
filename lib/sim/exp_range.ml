(* Experiment E5 — the §2 motivation: "for the same amount of data, it will
   take more page reads for a sparsely populated B+-tree", and scattered
   leaves turn sequential range scans into random I/O.

   A fixed range workload runs against a cold buffer pool before and after
   reorganization; the disk model charges a seek for non-sequential reads. *)

module Tree = Btree.Tree
module Disk = Pager.Disk

let scan_cost db ~ranges ~width =
  (* Cold cache: fresh pool over the same disk. *)
  Db.flush_all db;
  let pool = Pager.Buffer_pool.create db.Db.backend in
  let journal = Transact.Journal.create pool db.Db.log in
  let alloc = db.Db.alloc in
  let tree = Tree.attach ~journal ~alloc ~meta_pid:0 () in
  Disk.reset_stats db.Db.disk;
  let total = ref 0 in
  let rng = Util.Rng.create 7 in
  for _ = 1 to ranges do
    let lo = 2 * Util.Rng.int rng 2000 in
    total := !total + List.length (Tree.range tree ~lo ~hi:(lo + width))
  done;
  let s = Disk.stats db.Db.disk in
  (s, Disk.io_cost s, !total)

let run () =
  let table =
    Util.Table.create
      ~title:
        "E5 — range-scan cost before/after reorganization (cold cache, 60 scans of 400 keys;\n\
         cost model: random read = 11, sequential read = 1)"
      [ ("f1", Util.Table.Right); ("stage", Util.Table.Left); ("leaves", Util.Table.Right);
        ("page reads", Util.Table.Right); ("sequential", Util.Table.Right);
        ("random", Util.Table.Right); ("I/O cost", Util.Table.Right);
        ("speedup", Util.Table.Right) ]
  in
  List.iter
    (fun f1 ->
      let db, expected = Scenario.aged ~seed:61 ~n:2000 ~f1 () in
      let row stage cost_before =
        let stats, cost, _ = scan_cost db ~ranges:60 ~width:800 in
        let leaves = (Tree.stats db.Db.tree).Tree.leaf_count in
        Util.Table.add_row table
          [ Util.Table.float f1; Util.Table.text stage; Util.Table.num leaves;
            Util.Table.int stats.Disk.reads; Util.Table.int stats.Disk.seq_reads;
            Util.Table.int stats.Disk.rand_reads; Util.Table.float cost;
            (match cost_before with
            | None -> Util.Table.none
            | Some b -> Util.Table.ratio (Util.Stats.ratio b cost)) ];
        cost
      in
      let before = row "before (sparse, scattered)" None in
      ignore (Scenario.run_reorg Scenario.default db);
      Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Btree.Invariant.check_consistent_with db.Db.tree ~expected;
      ignore (row "after  (compacted, ordered)" (Some before));
      Util.Table.add_rule table)
    [ 0.2; 0.35; 0.5 ];
  table
