(* Experiments F1 / F2 — the three-pass algorithm end to end (Figure 1) and
   the leaf-reorganization main loop's branch profile (Figure 2).

   F1 shows the leaf zone's physical layout before/after each pass plus the
   tree shape, on a small tree so the layout strings are readable.
   F2 reports, for a realistic tree, how often the main loop chose
   copying-switching (Find-Free-Space hit) vs in-place compaction, and what
   pass 2 then had to do. *)

module Tree = Btree.Tree
module Leaf = Btree.Leaf
module Engine = Sched.Engine

(* One character per leaf-zone page: '.' free, digits/letters = key-order
   position of the leaf living there (mod 62). *)
let layout_string db =
  let alloc = db.Db.alloc in
  let lo, _ = Pager.Alloc.leaf_zone alloc in
  let leaves = Tree.leaf_pids db.Db.tree in
  let n = List.length leaves in
  let span =
    List.fold_left max (lo + 15) leaves - lo + 1
  in
  let buf = Bytes.make span '.' in
  let sym i =
    if i < 10 then Char.chr (Char.code '0' + i)
    else if i < 36 then Char.chr (Char.code 'a' + i - 10)
    else if i < 62 then Char.chr (Char.code 'A' + i - 36)
    else '#'
  in
  List.iteri (fun i pid -> Bytes.set buf (pid - lo) (sym i)) leaves;
  Printf.sprintf "%d leaves: %s" n (Bytes.to_string buf)

let run_figure1 () =
  let db, _records = Scenario.aged ~seed:17 ~n:260 ~f1:0.3 ~span_factor:2.0 () in
  let table =
    Util.Table.create ~title:"Figure 1 — three-pass reorganization (leaf-zone layout)"
      [ ("stage", Util.Table.Left); ("height", Util.Table.Right); ("avg fill", Util.Table.Right);
        ("physical layout (page order; symbol = key order)", Util.Table.Left) ]
  in
  let snap stage =
    let s = Tree.stats db.Db.tree in
    Util.Table.add_row table
      [ Util.Table.text stage; Util.Table.num s.Tree.height; Util.Table.pct s.Tree.avg_leaf_fill;
        Util.Table.text (layout_string db) ]
  in
  snap "initial (sparse, scattered)";
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Pass1.run ctx);
      snap "after pass 1 (compact)";
      ignore (Reorg.Pass2.run ctx);
      snap "after pass 2 (swap/move)";
      ignore (Reorg.Pass3.run ctx ());
      snap "after pass 3 (shrink+switch)");
  Engine.run eng;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  table

let run_figure2 () =
  let table =
    Util.Table.create
      ~title:
        "Figure 2 — leaf-reorganization main loop: Find-Free-Space hits vs in-place\n\
         (while more leaves: if appropriate free space then Copying-Switching else In-Place-Reorg)"
      [ ("f1", Util.Table.Right); ("units", Util.Table.Right);
        ("copying-switching", Util.Table.Right); ("in-place", Util.Table.Right);
        ("d = pages/unit", Util.Table.Right); ("pass-2 swaps", Util.Table.Right);
        ("pass-2 moves", Util.Table.Right) ]
  in
  List.iter
    (fun f1 ->
      let db, _ = Scenario.aged ~seed:23 ~n:2000 ~f1 () in
      let { Scenario.ctx; report = r; _ } = Scenario.run_reorg Scenario.default db in
      let m = ctx.Reorg.Ctx.metrics in
      let d =
        if (Reorg.Metrics.units m) = 0 then 0.0
        else
          float_of_int ((Reorg.Metrics.pages_compacted m) + (Reorg.Metrics.units m))
          /. float_of_int (Reorg.Metrics.units m)
      in
      Util.Table.add_row table
        [ Util.Table.float f1; Util.Table.num r.Reorg.Driver.pass1_units;
          Util.Table.num (Reorg.Metrics.new_place_units m);
          Util.Table.num (Reorg.Metrics.in_place_units m); Util.Table.float ~digits:1 d;
          Util.Table.num r.Reorg.Driver.swaps; Util.Table.num r.Reorg.Driver.moves ])
    [ 0.15; 0.25; 0.35; 0.45 ];
  table
