module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Record = Wal.Record
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr
module Lock_client = Transact.Lock_client
module Journal = Transact.Journal
module Engine = Sched.Engine
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Meta = Btree.Meta
module Tree = Btree.Tree
module Access = Btree.Access
module Olc = Btree.Olc

let key_of = function
  | Record.Side_insert { key; _ } | Record.Side_delete { key; _ } -> key

(* Test-only mutation hook: while [true], the scan does NOT advance CK as it
   releases each base page's S lock — breaking the §7.1 Get_Current contract
   the switch model guards.  The model-conformance self-test flips it to
   prove the checker catches a broken switch protocol.  The tree itself stays
   correct (a stale CK only means updaters are never "behind", so nothing
   enters the side file). *)
let test_skip_ck_advance = ref false

(* Apply one side-file entry to the new tree (used for catch-up and for
   post-switch redirected updaters). *)
let apply_op ctx new_tree ?txn op =
  (match op with
  | Record.Side_insert { key; child } -> Tree.insert_base_entry new_tree ?txn ~key ~child ()
  | Record.Side_delete { key; _ } -> Tree.delete_base_entry new_tree ?txn key);
  Obs.Counter.incr ctx.Ctx.metrics.Metrics.side_entries

(* Walk the old upper levels and free every internal page. *)
let discard_old_internals ctx ~old_root =
  let rec free pid =
    let p = Ctx.page ctx pid in
    if Inode.is_internal p then begin
      List.iter (fun e -> free e.Inode.child) (Inode.entries p);
      Journal.physical (Ctx.journal ctx) ~page:pid ~off:0 ~len:1 (fun q ->
          Pager.Page.set_kind q Pager.Page.kind_free);
      (* An optimistic reader still descending the discarded upper levels
         must notice its path died (DESIGN.md §11). *)
      Olc.bump (Ctx.olc ctx) pid;
      Alloc.release (Ctx.alloc ctx) pid
    end
  in
  free old_root

exception Retry

(* S-lock the base page with this low mark, revalidating: base pages can be
   split or freed by updaters between finding and locking them. *)
let rec lock_base ctx ~low =
  try lock_base_once ctx ~low with Retry -> lock_base ctx ~low

and lock_base_once ctx ~low =
  let tree = Ctx.tree ctx in
  let candidate =
    if low = min_int then Tree.first_base tree
    else
      match Tree.parent_of_leaf tree low with
      | Some b when Inode.low_mark (Ctx.page ctx b) = low -> Some b
      | _ -> Tree.next_base tree (low - 1)
  in
  match candidate with
  | None -> None
  | Some base ->
    (try Ctx.acquire ctx (Resource.Page base) Mode.S
     with Lock_client.Deadlock_victim -> begin
       Engine.sleep 2;
       raise Retry
     end);
    let p = Ctx.page ctx base in
    if Inode.is_internal p && Inode.level p = 1 && Inode.low_mark p >= low then Some base
    else begin
      Ctx.release ctx (Resource.Page base) Mode.S;
      Engine.yield ();
      lock_base ctx ~low
    end

type resume = {
  r_stable_key : int;
  r_closed : (int * int) list;
  r_side : Wal.Record.side_op list;
}

type finish = { f_new_root : int; f_side : Wal.Record.side_op list }

let run ctx ?resume ?finish () =
  let tree = Ctx.tree ctx in
  if Tree.height tree <= 1 && resume = None && finish = None then false
  else begin
    let access = ctx.Ctx.access in
    let journal = Ctx.journal ctx in
    let locks = Ctx.locks ctx in
    let old_name = Tree.tree_name tree in
    let old_root = Tree.root tree in
    let gen = Tree.generation tree + 1 in
    let side = Side_file.create ~journal ~locks in
    let me = ctx.Ctx.actor.Transact.Txn.id in
    (match (resume, finish) with
    | Some r, _ -> Side_file.restore_entries side r.r_side
    | _, Some f -> Side_file.restore_entries side f.f_side
    | None, None -> ());
    Access.set_side_undo access (Side_file.remove side);
    let builder =
      match resume with
      | None -> Builder.create ctx ~gen
      | Some { r_closed; _ } -> Builder.restore ctx ~gen ~closed:r_closed
    in
    (* The new tree gets a scratch meta page so ordinary Tree operations can
       run against it before the switch. *)
    let scratch_meta = Alloc.alloc (Ctx.alloc ctx) Alloc.Internal in
    let new_tree =
      ref None (* becomes a Tree.t once the new root exists *)
    in
    (* λ-switch mode: once the root has flipped, base-page changes go
       straight into the new tree — no side-file blocking at all (§7.4's
       "updates could be made in the new tree's base pages without affecting
       search correctness in the old tree"). *)
    let post_switch = ref false in
    (* §7.2 updater logic, installed behind the reorganization bit. *)
    Access.set_on_base_update access (fun txn op ->
        if !post_switch then begin
          (* λ-mode post-switch: the update goes straight to the new tree —
             the same redirect decision the side file reports when it turns
             an updater away, so it is announced under the same event. *)
          Ctx.emit ctx (Prot.Side_redirect { key = key_of op });
          apply_op ctx (Ctx.tree ctx) ~txn op
        end
        else begin
          let behind =
            match Rtable.ck ctx.Ctx.rtable with Some c -> key_of op < c | None -> false
          in
          if behind then
            match Side_file.append side ~txn op with
            | `Accepted -> ()
            | `Redirect ->
              (* The switch completed while this updater waited: its base-page
                 change went to the old tree and must be redone on the new
                 tree, which is the main tree by now (§7.4). *)
              ignore !new_tree;
              apply_op ctx (Ctx.tree ctx) ~txn op
        end);
    Tree.set_reorg_bit tree true;
    (* ---- scan the base pages, building the new upper levels ---- *)
    let resume_key =
      match (resume, finish) with
      | Some r, _ -> r.r_stable_key
      | _, Some _ -> max_int (* scan already complete *)
      | None, None -> min_int
    in
    (* Pin the WAL-truncation floor for the whole pass-3 span: the side-file
       records, the [Stable_key] and the [Switch] must stay replayable until
       cleanup, even though no transaction or dirty page pins them.  On
       resume the restart path has already lowered the floor to the oldest
       surviving pre-crash record; [lower_floor] keeps that minimum. *)
    Rtable.lower_floor ctx.Ctx.rtable (Wal.Log.head_lsn (Ctx.log ctx) + 1);
    Rtable.set_ck ctx.Ctx.rtable (Some resume_key);
    Ctx.emit ctx
      (Prot.Pass3_start
         {
           actor = me;
           mode =
             (match (resume, finish) with
             | Some _, _ -> Prot.Resume
             | _, Some _ -> Prot.Finish
             | None, None -> Prot.Fresh);
           ck = resume_key;
           lambda = ctx.Ctx.config.Config.lambda_switch;
         });
    let scanned = ref 0 in
    let rec scan low =
      match lock_base ctx ~low with
      | None -> ()
      | Some base ->
        let p = Ctx.page ctx base in
        let entries = Inode.entries p in
        List.iter (fun e -> Builder.feed builder ~key:e.Inode.key ~child:e.Inode.child) entries;
        incr scanned;
        Obs.Counter.incr ctx.Ctx.metrics.Metrics.base_pages_scanned;
        let this_low = Inode.low_mark p in
        let next = Tree.next_base (Ctx.tree ctx) this_low in
        let next_key =
          match next with Some nb -> Inode.low_mark (Ctx.page ctx nb) | None -> max_int
        in
        (* Get_Current advances before the S lock is given up (§7.1). *)
        let ck_before = Option.value (Rtable.ck ctx.Ctx.rtable) ~default:min_int in
        if not !test_skip_ck_advance then Rtable.set_ck ctx.Ctx.rtable (Some next_key);
        let ck_after = Option.value (Rtable.ck ctx.Ctx.rtable) ~default:min_int in
        Ctx.emit ctx (Prot.Scan_base { actor = me; base; ck_before; ck_after });
        Ctx.release ctx (Resource.Page base) Mode.S;
        if !scanned mod ctx.Ctx.config.Config.stable_every = 0 && next_key <> max_int then
          Builder.stable_point builder ~next_key;
        let pacing = ctx.Ctx.config.Config.scan_pacing in
        if pacing > 0 then Engine.sleep pacing else Engine.yield ();
        if next_key <> max_int then scan next_key
    in
    if finish = None then
      Ctx.span ctx Prot.Pass3_scan (fun () -> scan resume_key);
    Rtable.set_ck ctx.Ctx.rtable (Some max_int);
    Ctx.emit ctx (Prot.Scan_done { actor = me });
    (* ---- finalize the new upper levels ---- *)
    let new_root =
      match finish with
      | Some f -> f.f_new_root
      | None ->
        let new_root = Builder.finalize builder in
        let lsn =
          Wal.Log.append (Ctx.log ctx) (Record.Stable_key { key = max_int; new_root })
        in
        Wal.Log.force (Ctx.log ctx) lsn;
        new_root
    in
    Journal.physical journal ~page:scratch_meta ~off:0 ~len:Btree.Layout.body_start (fun p ->
        Meta.init p ~root:new_root ~tree_name:(old_name + 1);
        Meta.set_generation p gen);
    Olc.bump (Ctx.olc ctx) scratch_meta;
    (* The scratch tree shares the file's version table: page ids are
       file-global, and after the switch optimistic readers descend the
       structure the builder just wrote. *)
    let nt =
      Tree.attach ~olc:(Tree.olc tree) ~journal ~alloc:(Ctx.alloc ctx) ~meta_pid:scratch_meta ()
    in
    new_tree := Some nt;
    (* ---- catch-up: apply the side file to the new tree, one batch per
       scheduler yield (draining entry-by-entry made every entry a full
       scheduling round trip) ---- *)
    let batch_size = max 1 ctx.Ctx.config.Config.catchup_batch in
    let rec catch_up () =
      match Side_file.take_batch side ~max:batch_size with
      | [] -> ()
      | ops ->
        List.iter (fun op -> apply_op ctx nt op) ops;
        Obs.Counter.incr ctx.Ctx.metrics.Metrics.catchup_batches;
        Ctx.emit ctx (Prot.Catchup { actor = me; applied = List.length ops });
        Engine.yield ();
        catch_up ()
    in
    catch_up ();
    (* ---- switch (§7.4) ---- *)
    let rec acquire_side_x () =
      try Ctx.acquire ctx Resource.Side_file Mode.X
      with Lock_client.Deadlock_victim ->
        Engine.sleep 2;
        acquire_side_x ()
    in
    Ctx.span ctx (Prot.Pass3_switch { old_root; new_root = Tree.root nt }) (fun () ->
        acquire_side_x ();
        Ctx.emit ctx (Prot.Side_locked { actor = me });
        (* Final catch-up: only the entries appended while we waited. *)
        catch_up ();
        let backlog = Side_file.size side in
        let switch_lsn =
          Ctx.log_reorg ctx
            (Record.Switch
               { old_root; new_root = Tree.root nt; old_name; new_name = old_name + 1 })
        in
        Ctx.emit ctx
          (Prot.Switch_logged
             {
               actor = me;
               old_root;
               new_root = Tree.root nt;
               old_name;
               new_name = old_name + 1;
               backlog;
               lsn = switch_lsn;
             });
        Journal.physical journal ~page:(Tree.meta_pid tree) ~off:0
          ~len:Btree.Layout.body_start (fun p ->
            Meta.set_root p (Tree.root nt);
            Meta.set_tree_name p (old_name + 1);
            Meta.set_generation p gen);
        Olc.bump (Ctx.olc ctx) (Tree.meta_pid tree);
        Wal.Log.force_all (Ctx.log ctx));
    Ctx.emit ctx Prot.Switched;
    let cleanup () =
      discard_old_internals ctx ~old_root;
      Journal.physical journal ~page:scratch_meta ~off:0 ~len:1 (fun p ->
          Pager.Page.set_kind p Pager.Page.kind_free);
      Olc.bump (Ctx.olc ctx) scratch_meta;
      Alloc.release (Ctx.alloc ctx) scratch_meta;
      Tree.set_reorg_bit tree false;
      Access.clear_on_base_update access;
      Rtable.set_ck ctx.Ctx.rtable None;
      Rtable.clear_floor ctx.Ctx.rtable;
      Ctx.release ctx (Resource.Tree old_name) Mode.X;
      Wal.Log.force_all (Ctx.log ctx);
      Ctx.emit ctx (Prot.Switch_cleanup { actor = me })
    in
    if ctx.Ctx.config.Config.lambda_switch then begin
      (* λ-tree variant: the side file is held only for an instant — new
         base-page updates flow into the new tree directly, nobody is
         forced to abort, and the old upper levels are reclaimed in the
         background once the last old-tree transaction leaves. *)
      post_switch := true;
      Rtable.set_ck ctx.Ctx.rtable None;
      Ctx.release ctx Resource.Side_file Mode.X;
      Engine.spawn_child (fun () ->
          let rec drain () =
            match
              Lock_mgr.try_acquire locks ~owner:ctx.Ctx.actor.Transact.Txn.id
                (Resource.Tree old_name) Mode.X
            with
            | `Granted -> ()
            | `Conflict _ ->
              Engine.sleep 3;
              drain ()
          in
          drain ();
          cleanup ());
      true
    end
    else begin
      (* Wait for old-tree transactions to finish; after the time limit,
         force the stragglers to abort. *)
      let started = Engine.current_time () in
      let rec drain () =
        match Lock_mgr.try_acquire locks ~owner:ctx.Ctx.actor.Transact.Txn.id
                (Resource.Tree old_name) Mode.X
        with
        | `Granted -> ()
        | `Conflict blockers ->
          if Engine.current_time () - started > ctx.Ctx.config.Config.switch_wait then
            List.iter
              (fun (owner, _) ->
                if Lock_mgr.cancel_wait locks ~owner then begin
                  Obs.Counter.incr ctx.Ctx.metrics.Metrics.forced_aborts;
                  Ctx.emit ctx (Prot.Forced_abort { actor = me; owner; lambda = false })
                end)
              blockers;
          Engine.sleep 3;
          drain ()
      in
      drain ();
      (* Old-tree users are gone: reclaim the old upper levels. *)
      cleanup ();
      Ctx.release ctx Resource.Side_file Mode.X;
      true
    end
  end
