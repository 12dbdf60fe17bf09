module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Inode = Btree.Inode
module Record = Wal.Record

type t = {
  ctx : Ctx.t;
  gen : int;
  per_node : int;
  mutable closed : (int * int) list; (* (low mark, pid), newest first *)
  mutable cur : int option;
  mutable fresh : int list; (* pages not yet force-written *)
}

(* Fill factor for the rebuilt internal pages. *)
let internal_fill = 0.9

let per_node_of ctx =
  let capacity = (Ctx.page_size ctx - Btree.Layout.body_start) / Btree.Layout.entry_size in
  max 2 (int_of_float (internal_fill *. float_of_int capacity))

let create ctx ~gen =
  { ctx; gen; per_node = per_node_of ctx; closed = []; cur = None; fresh = [] }

let restore ctx ~gen ~closed =
  let t = create ctx ~gen in
  t.closed <- List.rev closed;
  t

let gen t = t.gen

let page t pid = Ctx.page t.ctx pid

let seal t =
  match t.cur with
  | None -> ()
  | Some pid ->
    let low = Inode.low_mark (page t pid) in
    t.closed <- (low, pid) :: t.closed;
    t.cur <- None

let feed t ~key ~child =
  let pid =
    match t.cur with
    | Some pid when Inode.nentries (page t pid) < t.per_node -> pid
    | maybe_full ->
      (match maybe_full with Some _ -> seal t | None -> ());
      let pid = Alloc.alloc (Ctx.alloc t.ctx) Alloc.Internal in
      let p = page t pid in
      Inode.init p ~level:1 ~low_mark:key;
      Inode.set_generation p t.gen;
      Buffer_pool.mark_dirty (Ctx.pool t.ctx) pid;
      t.cur <- Some pid;
      t.fresh <- pid :: t.fresh;
      pid
  in
  let p = page t pid in
  assert (Inode.insert p { Inode.key; child });
  Buffer_pool.mark_dirty (Ctx.pool t.ctx) pid

let flush_fresh t =
  List.iter (fun pid -> Buffer_pool.flush_page (Ctx.pool t.ctx) pid) (List.rev t.fresh);
  t.fresh <- []

let stable_point t ~next_key =
  seal t;
  flush_fresh t;
  let lsn =
    Wal.Log.append (Ctx.log t.ctx) (Record.Stable_key { key = next_key; new_root = 0 })
  in
  Wal.Log.force (Ctx.log t.ctx) lsn;
  Obs.Counter.incr t.ctx.Ctx.metrics.Metrics.stable_points

let closed_pages t = List.rev t.closed

let finalize t =
  seal t;
  let entries = List.rev t.closed in
  let root =
    match entries with
    | [] -> invalid_arg "Builder.finalize: nothing was built"
    | [ (_, only) ] -> only
    | _ ->
      let pages = ref [] in
      let root =
        Btree.Bulk.build_internal_levels ~journal:(Ctx.journal t.ctx) ~alloc:(Ctx.alloc t.ctx)
          ~fill:internal_fill ~start_level:2 ~gen:t.gen
          ~on_page:(fun pid -> pages := pid :: !pages)
          entries
      in
      t.fresh <- !pages @ t.fresh;
      root
  in
  flush_fresh t;
  root
