(* The §2 motivation scenario: a sparsely-populated B+-tree with scattered
   leaves makes range queries slow; online reorganization restores them.

   Run with:  dune exec examples/range_query_speedup.exe *)

module Tree = Btree.Tree
module Disk = Pager.Disk
module Db = Sim.Db

let measure_scans db label =
  (* Cold buffer pool over the same disk, so page reads hit the "disk". *)
  Db.flush_all db;
  let pool = Pager.Buffer_pool.create db.Db.backend in
  let journal = Transact.Journal.create pool db.Db.log in
  let tree = Tree.attach ~journal ~alloc:db.Db.alloc ~meta_pid:0 () in
  Disk.reset_stats db.Db.disk;
  let rng = Util.Rng.create 7 in
  let records = ref 0 in
  for _ = 1 to 50 do
    let lo = 2 * Util.Rng.int rng 2500 in
    records := !records + List.length (Tree.range tree ~lo ~hi:(lo + 600))
  done;
  let s = Disk.stats db.Db.disk in
  let cost = Disk.io_cost s in
  Printf.printf "%-26s %5d page reads (%4d sequential, %4d random)  I/O cost %8.0f\n" label
    s.Disk.reads s.Disk.seq_reads s.Disk.rand_reads cost;
  cost

let () =
  print_endline "Aged file: 3000 records at 25% leaf fill, leaves scattered on disk.";
  let db, _records = Sim.Scenario.aged ~seed:3 ~n:3000 ~f1:0.25 () in
  let before = measure_scans db "before reorganization:" in

  print_endline "\nReorganizing online (compact -> order -> shrink)...";
  let { Sim.Scenario.report; _ } = Sim.Scenario.run_reorg Sim.Scenario.default db in
  Printf.printf "  %d units, %d swaps, %d moves; height %d -> %d; fill %.0f%% -> %.0f%%\n"
    report.Reorg.Driver.pass1_units report.Reorg.Driver.swaps report.Reorg.Driver.moves
    report.Reorg.Driver.height_before report.Reorg.Driver.height_after
    (100.0 *. report.Reorg.Driver.fill_before)
    (100.0 *. report.Reorg.Driver.fill_after);
  print_newline ();

  let after = measure_scans db "after reorganization: " in
  Printf.printf "\nrange-scan I/O cost improved %.1fx\n" (before /. after)
