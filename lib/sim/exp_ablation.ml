(* Ablation — the paper's own design knobs, each turned off or swept:

   - pass 2 is optional ("choosing to do swapping only when range query
     performance falls below some acceptable level"): what does skipping it
     cost in range-scan I/O, and what does running it cost in time and log?
   - pass 3 optional: height/IO effect of the shrink;
   - target fill factor f2: compaction work vs achieved fill;
   - stable-point cadence (pass 3): recovery granularity vs internal fill. *)

module Tree = Btree.Tree
module Disk = Pager.Disk

let range_cost db =
  Db.flush_all db;
  let pool = Pager.Buffer_pool.create db.Db.disk in
  let journal = Transact.Journal.create pool db.Db.log in
  let tree = Tree.attach ~journal ~alloc:db.Db.alloc ~meta_pid:0 () in
  Disk.reset_stats db.Db.disk;
  let rng = Util.Rng.create 7 in
  for _ = 1 to 40 do
    let lo = 2 * Util.Rng.int rng 1500 in
    ignore (Tree.range tree ~lo ~hi:(lo + 600))
  done;
  Disk.io_cost (Disk.stats db.Db.disk)

let variant name config =
  let db, expected = Scenario.aged ~seed:91 ~n:1500 ~f1:0.25 () in
  let t0 = Sys.time () in
  let { Scenario.ctx; report = r; _ } = Scenario.run_reorg { Scenario.default with config } db in
  let dt = Sys.time () -. t0 in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  let s = Tree.stats db.Db.tree in
  ( name,
    r,
    s,
    (Reorg.Metrics.log_bytes ctx.Reorg.Ctx.metrics),
    range_cost db,
    dt )

let run () =
  let table =
    Util.Table.create
      ~title:"Ablation — each design knob of the paper, toggled (1500 records, f1 = 0.25)"
      [ ("variant", Util.Table.Left); ("units", Util.Table.Right); ("swaps", Util.Table.Right);
        ("height", Util.Table.Right); ("avg fill", Util.Table.Right);
        ("reorg log", Util.Table.Right); ("range I/O cost", Util.Table.Right);
        ("wall s", Util.Table.Right) ]
  in
  let d = Reorg.Config.paper in
  List.iter
    (fun (name, config) ->
      let name, r, s, log_bytes, cost, dt = variant name config in
      Util.Table.add_row table
        [ Util.Table.text name; Util.Table.num r.Reorg.Driver.pass1_units;
          Util.Table.num r.Reorg.Driver.swaps; Util.Table.num s.Tree.height;
          Util.Table.pct s.Tree.avg_leaf_fill; Util.Table.bytes log_bytes;
          Util.Table.float cost; Util.Table.float dt ])
    [
      ("full (default)", d);
      ("no pass 2 (swap off)", { d with swap_pass = false });
      ("no pass 3 (shrink off)", { d with shrink_pass = false });
      ("passes 1 only", { d with swap_pass = false; shrink_pass = false });
      ("f2 = 0.7", { d with f2 = 0.7 });
      ("f2 = 0.99", { d with f2 = 0.99 });
      ("no careful writing", { d with careful_writing = false });
      ("stable point every 2", { d with stable_every = 2 });
      ("stable point every 20", { d with stable_every = 20 });
    ];
  table
