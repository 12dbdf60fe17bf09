module Tree = Btree.Tree

type report = {
  pass1_units : int;
  swaps : int;
  moves : int;
  switched : bool;
  height_before : int;
  height_after : int;
  leaves_before : int;
  leaves_after : int;
  fill_before : float;
  fill_after : float;
  out_of_order_after_pass1 : int;
}

let empty_report =
  {
    pass1_units = 0;
    swaps = 0;
    moves = 0;
    switched = false;
    height_before = 0;
    height_after = 0;
    leaves_before = 0;
    leaves_after = 0;
    fill_before = 0.0;
    fill_after = 0.0;
    out_of_order_after_pass1 = 0;
  }

let run ?(pass1_workers = 1) ctx =
  let tree = Ctx.tree ctx in
  let before = Tree.stats tree in
  let pass1_units =
    Ctx.span ctx (Prot.Pass1 { workers = pass1_workers }) (fun () ->
        if pass1_workers > 1 then Pass1.run_parallel ctx ~workers:pass1_workers
        else Pass1.run ctx)
  in
  Ctx.checkpoint ctx;
  let out_of_order = Pass2.out_of_order ctx in
  let swaps, moves =
    Ctx.span ctx Prot.Pass2 (fun () ->
        if ctx.Ctx.config.Config.swap_pass then Pass2.run ctx else (0, 0))
  in
  Ctx.checkpoint ctx;
  let switched =
    Ctx.span ctx Prot.Pass3 (fun () ->
        if ctx.Ctx.config.Config.shrink_pass then Pass3.run ctx () else false)
  in
  Ctx.checkpoint ctx;
  let after = Tree.stats tree in
  {
    pass1_units;
    swaps;
    moves;
    switched;
    height_before = before.Tree.height;
    height_after = after.Tree.height;
    leaves_before = before.Tree.leaf_count;
    leaves_after = after.Tree.leaf_count;
    fill_before = before.Tree.avg_leaf_fill;
    fill_after = after.Tree.avg_leaf_fill;
    out_of_order_after_pass1 = out_of_order;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "units=%d swaps=%d moves=%d switched=%b height %d->%d leaves %d->%d fill %.2f->%.2f \
     out-of-order-after-pass1=%d"
    r.pass1_units r.swaps r.moves r.switched r.height_before r.height_after r.leaves_before
    r.leaves_after r.fill_before r.fill_after r.out_of_order_after_pass1
