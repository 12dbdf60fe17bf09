(* Component tests for the reorganizer's internals: the §5 system table,
   Find-Free-Space, the side file, the pass-3 builder, and direct execution
   of individual reorganization units. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Txn_mgr = Transact.Txn_mgr
module Record = Wal.Record
module Db = Sim.Db
module Ctx = Reorg.Ctx
module Rtable = Reorg.Rtable
module Unit_exec = Reorg.Unit_exec
module Side_file = Reorg.Side_file
module Builder = Reorg.Builder

let payload = Db.payload_for

let mk_ctx ?(config = Reorg.Config.default) db = Ctx.make ~access:db.Db.access ~config ()

let in_engine f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

(* ---------------- rtable ---------------- *)

let test_rtable_lifecycle () =
  let rt = Rtable.create () in
  Alcotest.(check int) "initial LK" min_int (Rtable.lk rt);
  Alcotest.(check (option int)) "no unit" None (Rtable.in_flight rt);
  let u = Rtable.next_unit_id rt in
  Rtable.begin_unit rt ~unit_id:u ~begin_lsn:10;
  Alcotest.(check (option int)) "in flight" (Some u) (Rtable.in_flight rt);
  Rtable.note_lsn rt 12;
  Alcotest.(check int) "last lsn" 12 (Rtable.last_lsn rt);
  Rtable.end_unit rt ~largest_key:99;
  Alcotest.(check int) "LK advanced" 99 (Rtable.lk rt);
  Rtable.end_unit rt ~largest_key:50;
  Alcotest.(check int) "LK monotone" 99 (Rtable.lk rt);
  (* image/restore round-trip *)
  Rtable.set_ck rt (Some 77);
  let img = Rtable.image rt in
  let rt2 = Rtable.create () in
  Rtable.restore rt2 img;
  Alcotest.(check int) "restored LK" 99 (Rtable.lk rt2);
  Alcotest.(check (option int)) "restored CK" (Some 77) (Rtable.ck rt2)

(* ---------------- free space ---------------- *)

let test_free_space_policies () =
  let db = Db.create ~leaf_pages:64 () in
  let ctx_paper = mk_ctx db in
  let ctx_ff =
    mk_ctx ~config:{ Reorg.Config.default with heuristic = Reorg.Config.First_free } db
  in
  let ctx_none =
    mk_ctx ~config:{ Reorg.Config.default with heuristic = Reorg.Config.No_new_place } db
  in
  (* Claim pages so that frees are at 5, 9, 30. *)
  let lo, hi = Pager.Alloc.leaf_zone db.Db.alloc in
  for pid = lo to hi - 1 do
    if pid <> 5 && pid <> 9 && pid <> 30 && Pager.Alloc.is_free db.Db.alloc pid then begin
      Pager.Alloc.alloc_specific db.Db.alloc pid;
      let p = Pager.Buffer_pool.get db.Db.pool pid in
      Pager.Page.set_kind p 1;
      Pager.Buffer_pool.mark_dirty db.Db.pool pid
    end
  done;
  (* Paper: first free in (L, C). *)
  Alcotest.(check (option int)) "paper window hit" (Some 9)
    (Reorg.Free_space.choose ctx_paper ~l:7 ~c:20);
  Alcotest.(check (option int)) "paper window empty" None
    (Reorg.Free_space.choose ctx_paper ~l:10 ~c:25);
  Alcotest.(check (option int)) "paper excludes L and below" (Some 30)
    (Reorg.Free_space.choose ctx_paper ~l:9 ~c:40);
  (* First-free: smallest anywhere, window ignored. *)
  Alcotest.(check (option int)) "first-free" (Some 5)
    (Reorg.Free_space.choose ctx_ff ~l:10 ~c:25);
  (* No-new-place: always None. *)
  Alcotest.(check (option int)) "no-new-place" None
    (Reorg.Free_space.choose ctx_none ~l:7 ~c:20)

(* ---------------- side file ---------------- *)

let test_side_file_append_take () =
  let db = Db.create () in
  let side = Side_file.create ~journal:db.Db.journal ~locks:db.Db.locks in
  in_engine (fun () ->
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      let r1 = Side_file.append side ~txn:tx (Record.Side_insert { key = 5; child = 10 }) in
      let r2 = Side_file.append side ~txn:tx (Record.Side_delete { key = 7; child = 11 }) in
      Alcotest.(check bool) "accepted" true (r1 = `Accepted && r2 = `Accepted);
      Txn_mgr.commit db.Db.mgr tx);
  Alcotest.(check int) "size" 2 (Side_file.size side);
  (* FIFO drain. *)
  (match Side_file.take side with
  | Some (Record.Side_insert { key = 5; _ }) -> ()
  | _ -> Alcotest.fail "expected oldest first");
  Alcotest.(check int) "one left" 1 (Side_file.size side);
  (* Side_applied was logged for the taken entry. *)
  Wal.Log.force_all db.Db.log;
  let applied = ref 0 in
  Wal.Log.iter db.Db.log (fun _ b ->
      match b with Record.Side_applied _ -> incr applied | _ -> ());
  Alcotest.(check int) "applied logged" 1 !applied

let test_side_file_abort_removes_entry () =
  let db = Db.create () in
  let side = Side_file.create ~journal:db.Db.journal ~locks:db.Db.locks in
  Btree.Access.set_side_undo db.Db.access (Side_file.remove side);
  in_engine (fun () ->
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      ignore (Side_file.append side ~txn:tx (Record.Side_insert { key = 5; child = 10 }));
      Txn_mgr.abort db.Db.mgr tx);
  Alcotest.(check int) "entry removed by CLR" 0 (Side_file.size side)

let test_side_file_redirect_during_switch () =
  let db = Db.create () in
  let side = Side_file.create ~journal:db.Db.journal ~locks:db.Db.locks in
  let reorg = Txn_mgr.fresh_owner db.Db.mgr in
  in_engine (fun () ->
      (* Reorganizer holds X on the side file (switching). *)
      Transact.Lock_client.acquire db.Db.locks ~txn:reorg Lockmgr.Resource.Side_file
        Lockmgr.Mode.X;
      let result = ref None in
      Engine.spawn_child (fun () ->
          let tx = Txn_mgr.begin_txn db.Db.mgr in
          result := Some (Side_file.append side ~txn:tx (Record.Side_insert { key = 1; child = 2 }));
          Txn_mgr.commit db.Db.mgr tx);
      Engine.sleep 5;
      Alcotest.(check bool) "updater parked during switch" true (!result = None);
      Transact.Lock_client.release db.Db.locks ~txn:reorg Lockmgr.Resource.Side_file
        Lockmgr.Mode.X;
      Engine.sleep 5;
      Alcotest.(check bool) "redirected after switch" true (!result = Some `Redirect);
      Alcotest.(check int) "nothing appended" 0 (Side_file.size side))

(* ---------------- builder ---------------- *)

let test_builder_packs_and_finalizes () =
  let db = Db.create ~page_size:512 () in
  let ctx = mk_ctx db in
  let builder = Builder.create ctx ~gen:3 in
  (* Feed 100 fake base entries (children ids are arbitrary distinct). *)
  for i = 0 to 99 do
    Builder.feed builder ~key:(10 * i) ~child:(1000 + i)
  done;
  let root = Builder.finalize builder in
  let p = Pager.Buffer_pool.get db.Db.pool root in
  Alcotest.(check bool) "root is internal" true (Inode.is_internal p);
  Alcotest.(check int) "generation tagged" 3 (Inode.generation p);
  (* All 100 entries reachable below the root, in order. *)
  let collected = ref [] in
  let rec walk pid =
    let p = Pager.Buffer_pool.get db.Db.pool pid in
    if Inode.level p = 1 then
      List.iter (fun e -> collected := e.Inode.child :: !collected) (Inode.entries p)
    else List.iter (fun e -> walk e.Inode.child) (Inode.entries p)
  in
  walk root;
  Alcotest.(check (list int)) "children in order"
    (List.init 100 (fun i -> 1000 + i))
    (List.rev !collected);
  (* New pages are durable after finalize. *)
  Alcotest.(check bool) "root durable" true (Pager.Buffer_pool.is_durable db.Db.pool root)

let test_builder_stable_point_seals () =
  let db = Db.create ~page_size:512 () in
  let ctx = mk_ctx db in
  let builder = Builder.create ctx ~gen:2 in
  for i = 0 to 9 do
    Builder.feed builder ~key:(10 * i) ~child:(1000 + i)
  done;
  Builder.stable_point builder ~next_key:100;
  let closed = Builder.closed_pages builder in
  Alcotest.(check bool) "partial page sealed" true (List.length closed >= 1);
  (* Sealed pages are on disk and a Stable_key record is forced. *)
  List.iter
    (fun (_, pid) ->
      Alcotest.(check bool) "sealed page durable" true
        (Pager.Buffer_pool.is_durable db.Db.pool pid))
    closed;
  let found = ref false in
  Wal.Log.iter db.Db.log (fun _ b ->
      match b with Record.Stable_key { key = 100; _ } -> found := true | _ -> ());
  Alcotest.(check bool) "stable key logged + forced" true !found;
  (* Restore from the sealed pages continues seamlessly. *)
  let builder2 = Builder.restore ctx ~gen:2 ~closed in
  for i = 10 to 19 do
    Builder.feed builder2 ~key:(10 * i) ~child:(1000 + i)
  done;
  let root = Builder.finalize builder2 in
  let collected = ref 0 in
  let rec walk pid =
    let p = Pager.Buffer_pool.get db.Db.pool pid in
    if Inode.level p = 1 then collected := !collected + Inode.nentries p
    else List.iter (fun e -> walk e.Inode.child) (Inode.entries p)
  in
  walk root;
  Alcotest.(check int) "all entries present after resume" 20 !collected

(* ---------------- unit executor ---------------- *)

let mk_tree_db ?capacity () =
  let db = Db.create ~leaf_pages:512 ?capacity () in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 599 do
    Tree.insert db.Db.tree ~txn:tx ~key:(2 * k) ~payload:(payload (2 * k)) ()
  done;
  (* Thin every leaf so compaction has work. *)
  for k = 0 to 599 do
    if k mod 3 <> 0 then ignore (Tree.delete db.Db.tree ~txn:tx (2 * k))
  done;
  Txn_mgr.commit db.Db.mgr tx;
  db

let test_compact_unit_direct () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 0) in
  let bp = Tree.page db.Db.tree base in
  let leaves =
    List.filteri (fun i _ -> i < 3) (List.map (fun e -> e.Inode.child) (Inode.entries bp))
  in
  let dest = List.hd leaves in
  let before = Btree.Invariant.contents db.Db.tree in
  let outcome =
    in_engine (fun () ->
        Unit_exec.execute ctx (Unit_exec.Compact { base; leaves; dest = `In_place dest }))
  in
  (match outcome with
  | Unit_exec.Done k -> Alcotest.(check bool) "largest key sane" true (k >= 0)
  | _ -> Alcotest.fail "expected Done");
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Alcotest.(check bool) "contents preserved" true
    (Btree.Invariant.contents db.Db.tree = before);
  (* The unit logged BEGIN/MOVE/MODIFY/END. *)
  Wal.Log.force_all db.Db.log;
  let kinds = ref [] in
  Wal.Log.iter db.Db.log (fun _ b ->
      match b with
      | Record.Reorg_begin _ -> kinds := "B" :: !kinds
      | Record.Reorg_move _ -> kinds := "M" :: !kinds
      | Record.Reorg_modify _ -> kinds := "D" :: !kinds
      | Record.Reorg_end _ -> kinds := "E" :: !kinds
      | _ -> ());
  (match List.rev !kinds with
  | "B" :: rest ->
    Alcotest.(check bool) "ends with END" true (List.nth rest (List.length rest - 1) = "E")
  | _ -> Alcotest.fail "expected BEGIN first");
  Alcotest.(check int) "locks all released" 0
    (Lockmgr.Lock_mgr.locked_count db.Db.locks ~owner:ctx.Ctx.actor.Transact.Txn.id)

let test_swap_unit_direct () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let pids = Tree.leaf_pids db.Db.tree in
  let a = List.nth pids 1 and b = List.nth pids 5 in
  let key_of pid =
    match Leaf.min_key (Tree.page db.Db.tree pid) with Some k -> k | None -> 0
  in
  let a_base = Option.get (Tree.parent_of_leaf db.Db.tree (key_of a)) in
  let b_base = Option.get (Tree.parent_of_leaf db.Db.tree (key_of b)) in
  let before = Btree.Invariant.contents db.Db.tree in
  let outcome =
    in_engine (fun () -> Unit_exec.execute ctx (Unit_exec.Swap { a_base; a; b_base; b }))
  in
  Alcotest.(check bool) "done" true (match outcome with Unit_exec.Done _ -> true | _ -> false);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Alcotest.(check bool) "contents preserved" true
    (Btree.Invariant.contents db.Db.tree = before);
  (* Physical positions swapped. *)
  let pids' = Tree.leaf_pids db.Db.tree in
  Alcotest.(check int) "b at a's position" b (List.nth pids' 1);
  Alcotest.(check int) "a at b's position" a (List.nth pids' 5)

(* A swap fixes both leaves' pages before it X-locks their chain
   neighbours.  Here a user holds X on one neighbour and, while the unit
   waits for it, touches every leaf of a small pool, so both swapped leaves
   are evicted under the unit.  The exchange must still land in the
   resident frames. *)
let test_swap_survives_eviction_during_neighbour_wait () =
  let db = mk_tree_db ~capacity:8 () in
  let ctx = mk_ctx db in
  let pids = Tree.leaf_pids db.Db.tree in
  let a = List.nth pids 1 and b = List.nth pids 5 in
  let key_of pid = Option.get (Leaf.min_key (Tree.page db.Db.tree pid)) in
  let a_base = Option.get (Tree.parent_of_leaf db.Db.tree (key_of a)) in
  let b_base = Option.get (Tree.parent_of_leaf db.Db.tree (key_of b)) in
  let neighbour = List.nth pids 2 in
  let before = Btree.Invariant.contents db.Db.tree in
  let eng = Engine.create () in
  let user = Txn_mgr.fresh_owner db.Db.mgr in
  let evicted = ref false and outcome = ref None in
  Engine.spawn eng (fun () ->
      Transact.Lock_client.acquire db.Db.locks ~txn:user (Lockmgr.Resource.Page neighbour)
        Lockmgr.Mode.X;
      Engine.sleep 10;
      Tree.iter_leaves db.Db.tree (fun _ _ -> ());
      let pool = db.Db.pool in
      evicted := not (Pager.Buffer_pool.in_pool pool a || Pager.Buffer_pool.in_pool pool b);
      Transact.Lock_client.release_all db.Db.locks ~txn:user);
  Engine.spawn eng (fun () ->
      Engine.sleep 1;
      outcome := Some (Unit_exec.execute ctx (Unit_exec.Swap { a_base; a; b_base; b })));
  Engine.run eng;
  Alcotest.(check bool) "both leaves evicted during the wait" true !evicted;
  Alcotest.(check bool) "done" true
    (match !outcome with Some (Unit_exec.Done _) -> true | _ -> false);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Alcotest.(check bool) "contents preserved" true
    (Btree.Invariant.contents db.Db.tree = before);
  let pids' = Tree.leaf_pids db.Db.tree in
  Alcotest.(check int) "b at a's position" b (List.nth pids' 1);
  Alcotest.(check int) "a at b's position" a (List.nth pids' 5)

let test_move_unit_direct () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let pids = Tree.leaf_pids db.Db.tree in
  let org = List.nth pids 2 in
  let key_of pid =
    match Leaf.min_key (Tree.page db.Db.tree pid) with Some k -> k | None -> 0
  in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree (key_of org)) in
  let lo, hi = Pager.Alloc.leaf_zone db.Db.alloc in
  let dest = Option.get (Pager.Alloc.free_in_range db.Db.alloc ~lo ~hi) in
  let before = Btree.Invariant.contents db.Db.tree in
  let outcome =
    in_engine (fun () -> Unit_exec.execute ctx (Unit_exec.Move { base; org; dest }))
  in
  Alcotest.(check bool) "done" true (match outcome with Unit_exec.Done _ -> true | _ -> false);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Alcotest.(check bool) "contents preserved" true
    (Btree.Invariant.contents db.Db.tree = before);
  Alcotest.(check bool) "org now free-or-pending" true
    (Pager.Alloc.is_free db.Db.alloc org
    || Pager.Alloc.pending_release db.Db.alloc org <> None);
  Alcotest.(check bool) "dest is a leaf now" true (Leaf.is_leaf (Tree.page db.Db.tree dest))

let test_stale_plan_rejected () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 0) in
  (* Leaves that are NOT children of this base / not consecutive. *)
  let pids = Tree.leaf_pids db.Db.tree in
  let bogus = [ List.nth pids 0; List.nth pids 7 ] in
  let outcome =
    in_engine (fun () ->
        Unit_exec.execute ctx
          (Unit_exec.Compact { base; leaves = bogus; dest = `In_place (List.hd bogus) }))
  in
  Alcotest.(check bool) "stale" true (outcome = Unit_exec.Stale);
  Alcotest.(check int) "no locks leaked" 0
    (Lockmgr.Lock_mgr.locked_count db.Db.locks ~owner:ctx.Ctx.actor.Transact.Txn.id);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_unit_blocked_by_reader_waits () =
  (* A reader holding S on a unit leaf delays the unit (RX waits), but the
     unit completes once the reader finishes. *)
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 0) in
  let bp = Tree.page db.Db.tree base in
  let leaves =
    List.filteri (fun i _ -> i < 2) (List.map (fun e -> e.Inode.child) (Inode.entries bp))
  in
  let eng = Engine.create () in
  let reader = Txn_mgr.fresh_owner db.Db.mgr in
  let outcome = ref None in
  Engine.spawn eng (fun () ->
      Transact.Lock_client.acquire db.Db.locks ~txn:reader
        (Lockmgr.Resource.Page (List.nth leaves 1))
        Lockmgr.Mode.S;
      Engine.sleep 10;
      Transact.Lock_client.release_all db.Db.locks ~txn:reader);
  Engine.spawn eng (fun () ->
      Engine.sleep 1;
      outcome :=
        Some
          (Unit_exec.execute ctx
             (Unit_exec.Compact { base; leaves; dest = `In_place (List.hd leaves) })));
  Engine.run eng;
  Alcotest.(check bool) "unit completed after reader left" true
    (match !outcome with Some (Unit_exec.Done _) -> true | _ -> false);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

(* While a compact waits for a reader, an updater splits leaves under
   another base.  The unit's one MODIFY still names the base it planned on,
   and its entry for the destination lands there. *)
let test_modify_lands_on_planned_base () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 0) in
  let leaves =
    List.filteri (fun i _ -> i < 3)
      (List.map (fun e -> e.Inode.child) (Inode.entries (Tree.page db.Db.tree base)))
  in
  let far = List.init 150 (fun i -> 1001 + (2 * i)) in
  Alcotest.(check bool) "the far keys live under another base" true
    (Tree.parent_of_leaf db.Db.tree (List.hd far) <> Some base);
  let leaves_before = (Tree.stats db.Db.tree).Tree.leaf_count in
  let expected =
    List.sort compare (Btree.Invariant.contents db.Db.tree @ List.map (fun k -> (k, payload k)) far)
  in
  let eng = Engine.create () in
  let reader = Txn_mgr.fresh_owner db.Db.mgr in
  let outcome = ref None and leaves_mid = ref 0 in
  (* The reader leaves once the updater has committed. *)
  Engine.spawn eng (fun () ->
      Transact.Lock_client.acquire db.Db.locks ~txn:reader
        (Lockmgr.Resource.Page (List.nth leaves 1))
        Lockmgr.Mode.S;
      while !leaves_mid = 0 do
        Engine.sleep 1
      done;
      Transact.Lock_client.release_all db.Db.locks ~txn:reader);
  Engine.spawn eng (fun () ->
      Engine.sleep 1;
      outcome :=
        Some
          (Unit_exec.execute ctx
             (Unit_exec.Compact { base; leaves; dest = `In_place (List.hd leaves) })));
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      let tx = Txn_mgr.begin_txn db.Db.mgr in
      List.iter (fun key -> Btree.Access.insert db.Db.access ~txn:tx ~key ~payload:(payload key)) far;
      Txn_mgr.commit db.Db.mgr tx;
      leaves_mid := (Tree.stats db.Db.tree).Tree.leaf_count;
      Alcotest.(check bool) "the unit is still waiting" true (!outcome = None));
  Engine.run eng;
  Alcotest.(check bool) "leaves split elsewhere" true (!leaves_mid > leaves_before);
  Alcotest.(check bool) "unit done" true
    (match !outcome with Some (Unit_exec.Done _) -> true | _ -> false);
  let modified = ref [] in
  Wal.Log.force_all db.Db.log;
  Wal.Log.iter db.Db.log (fun _ b ->
      match b with
      | Record.Reorg_modify { base; _ } -> modified := base :: !modified
      | _ -> ());
  Alcotest.(check (list int)) "one MODIFY, on the planned base" [ base ] !modified;
  Alcotest.(check bool) "the destination's entry is in the planned base" true
    (List.exists
       (fun e -> e.Inode.child = List.hd leaves)
       (Inode.entries (Tree.page db.Db.tree base)));
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Alcotest.(check bool) "contents" true (Btree.Invariant.contents db.Db.tree = expected)

(* Pass 2 at a position whose slot holds the leaf of a later position, and
   that leaf's own slot is a page still awaiting careful-writing release:
   the pending slot is resolved by forcing its dependency, so pass 2
   cascades with two cheap moves instead of logging a two-page swap.
   Whether the slot counted as free must not hinge on whether an eviction
   happened to flush the dependency first. *)
let test_pass2_cascades_into_pending_slot () =
  let db = mk_tree_db () in
  let ctx = mk_ctx db in
  let order = Btree.Leaf_order.create db.Db.tree in
  Alcotest.(check int) "leaves start in slot order" 0 (Btree.Leaf_order.out_of_order order);
  let i = 1 and j = 3 in
  let leaf k = Btree.Leaf_order.leaf order k and base k = Btree.Leaf_order.base order k in
  let slot k = Btree.Leaf_order.slot order k in
  let lo, hi = Pager.Alloc.leaf_zone db.Db.alloc in
  let far = Option.get (Pager.Alloc.free_in_range db.Db.alloc ~lo:(lo + 200) ~hi) in
  let swaps, moves =
    in_engine (fun () ->
        let done_ = function Unit_exec.Done _ -> () | _ -> Alcotest.fail "setup unit failed" in
        (* Position j's leaf into slot i, then position i's leaf out of slot j
           to a far page: slot j is freed but pending until [far] is durable. *)
        done_
          (Unit_exec.execute ctx
             (Unit_exec.Swap { a_base = base i; a = leaf i; b_base = base j; b = leaf j }));
        done_ (Unit_exec.execute ctx (Unit_exec.Move { base = base j; org = slot j; dest = far }));
        Alcotest.(check (option int)) "slot j pending on the far page" (Some far)
          (Pager.Alloc.pending_release db.Db.alloc (slot j));
        Reorg.Pass2.run ctx)
  in
  Alcotest.(check int) "no swap" 0 swaps;
  Alcotest.(check int) "cascade: two moves" 2 moves;
  Alcotest.(check int) "leaves back in slot order" 0 (Reorg.Pass2.out_of_order ctx);
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree

let () =
  Alcotest.run "reorg units"
    [
      ("rtable", [ Alcotest.test_case "lifecycle" `Quick test_rtable_lifecycle ]);
      ("free space", [ Alcotest.test_case "policies" `Quick test_free_space_policies ]);
      ( "side file",
        [
          Alcotest.test_case "append/take" `Quick test_side_file_append_take;
          Alcotest.test_case "abort removes" `Quick test_side_file_abort_removes_entry;
          Alcotest.test_case "redirect at switch" `Quick test_side_file_redirect_during_switch;
        ] );
      ( "builder",
        [
          Alcotest.test_case "pack + finalize" `Quick test_builder_packs_and_finalizes;
          Alcotest.test_case "stable point + restore" `Quick test_builder_stable_point_seals;
        ] );
      ( "unit executor",
        [
          Alcotest.test_case "compact in place" `Quick test_compact_unit_direct;
          Alcotest.test_case "swap" `Quick test_swap_unit_direct;
          Alcotest.test_case "move" `Quick test_move_unit_direct;
          Alcotest.test_case "stale plan" `Quick test_stale_plan_rejected;
          Alcotest.test_case "waits for reader" `Quick test_unit_blocked_by_reader_waits;
          Alcotest.test_case "pass 2 cascades into a pending slot" `Quick
            test_pass2_cascades_into_pending_slot;
          Alcotest.test_case "swap survives eviction during a neighbour wait" `Quick
            test_swap_survives_eviction_during_neighbour_wait;
          Alcotest.test_case "modify lands on the planned base" `Quick
            test_modify_lands_on_planned_base;
        ] );
    ]
