module Page = Pager.Page
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_client = Transact.Lock_client
module Journal = Transact.Journal
module Txn_mgr = Transact.Txn_mgr
module Engine = Sched.Engine
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Tree = Btree.Tree
module Access = Btree.Access
module Layout = Btree.Layout
module Leaf_order = Btree.Leaf_order

type stats = {
  mutable ops : int;
  mutable merges : int;
  mutable swaps : int;
  mutable moves : int;
  mutable records_moved : int;
  mutable log_bytes : int;
  mutable lock_hold_ticks : int;
}

let create_stats () =
  { ops = 0; merges = 0; swaps = 0; moves = 0; records_moved = 0; log_bytes = 0; lock_hold_ticks = 0 }

(* Run [f] as one block operation: an individual transaction holding the
   file (tree) lock exclusively — "[Smi90] prevents user transactions from
   accessing the entire file". *)
let block_op ~access stats f =
  let mgr = Access.mgr access in
  let tree = Access.tree access in
  let locks = Access.locks access in
  let journal = Tree.journal tree in
  let log = Journal.log journal in
  let tx = Txn_mgr.begin_txn mgr in
  let bytes_before = (Wal.Log.stats log).Wal.Log.bytes in
  Lock_client.acquire locks ~txn:tx (Resource.Tree (Tree.tree_name tree)) Mode.X;
  let t0 = Engine.current_time () in
  let result = f tx in
  Engine.yield ();
  (* The file lock is held for the whole operation, commit included. *)
  Txn_mgr.commit mgr tx;
  stats.lock_hold_ticks <- stats.lock_hold_ticks + (Engine.current_time () - t0);
  stats.ops <- stats.ops + 1;
  stats.log_bytes <- stats.log_bytes + ((Wal.Log.stats log).Wal.Log.bytes - bytes_before);
  result

let page tree pid = Buffer_pool.get (Tree.pool tree) pid

let whole_page tree ?txn pid f =
  let size = Buffer_pool.page_size (Tree.pool tree) in
  Journal.physical (Tree.journal tree) ?txn ~page:pid ~off:0 ~len:size f

let entry_key_of_leaf tree pid =
  match Tree.parent_of_leaf tree (Leaf.low_mark (page tree pid)) with
  | None -> None
  | Some parent -> begin
    match Inode.find_child (page tree parent) pid with
    | Some i -> Some (parent, (Inode.entry_at (page tree parent) i).Inode.key)
    | None -> None
  end

(* Adjacent leaves are merged only under a common parent: removing the
   first entry of the *next* base page would orphan the key range between
   that base's low mark and its new first entry. *)
let same_parent tree a b =
  let pa = page tree a and pb = page tree b in
  let ka = match Leaf.min_key pa with Some k -> k | None -> Leaf.low_mark pa in
  let kb = match Leaf.min_key pb with Some k -> k | None -> Leaf.low_mark pb in
  match (Tree.parent_of_leaf tree ka, Tree.parent_of_leaf tree kb) with
  | Some x, Some y -> x = y
  | _ -> false

(* Merge leaf [b] (successor in the chain) into leaf [a]. *)
let merge_blocks tree tx ~a ~b =
  let records_b = Leaf.records (page tree b) in
  let next_b = Leaf.next (page tree b) in
  whole_page tree ~txn:tx a (fun p ->
      List.iter (fun r -> assert (Leaf.insert p r)) records_b;
      Leaf.set_next p next_b);
  (match next_b with
  | Some n -> whole_page tree ~txn:tx n (fun p -> Leaf.set_prev p (Some a))
  | None -> ());
  let entry = entry_key_of_leaf tree b in
  whole_page tree ~txn:tx b (fun p -> Page.set_kind p Page.kind_free);
  Alloc.release (Tree.alloc tree) b;
  (match entry with
  | Some (_, key) -> Tree.delete_base_entry tree ~txn:tx key
  | None -> ());
  List.length records_b

let compact ~access ~f2 stats =
  let tree = Access.tree access in
  let usable =
    Layout.usable_bytes ~page_size:(Buffer_pool.page_size (Tree.pool tree))
  in
  let usable = int_of_float (f2 *. float_of_int usable) in
  let target = usable in
  (* One merge per transaction; rescan from the front after each (the merged
     page may absorb further successors). *)
  let rec pass () =
    let candidate =
      let found = ref None in
      Tree.iter_leaves tree (fun pid p ->
          if !found = None then
            match Leaf.next p with
            | Some nxt when Leaf.live_bytes p < target ->
              if
                Leaf.live_bytes p + Leaf.live_bytes (page tree nxt) <= target
                && same_parent tree pid nxt
              then found := Some (pid, nxt)
            | _ -> ());
      !found
    in
    match candidate with
    | None -> ()
    | Some (a, b) ->
      let moved =
        block_op ~access stats (fun tx ->
            (* Re-validate under the file lock: concurrent transactions may
               have changed the chain since the candidate was chosen. *)
            let pa = page tree a in
            if
              Leaf.is_leaf pa
              && Leaf.next pa = Some b
              && Leaf.is_leaf (page tree b)
              && Leaf.live_bytes pa + Leaf.live_bytes (page tree b) <= usable
              && same_parent tree a b
            then merge_blocks tree tx ~a ~b
            else -1)
      in
      if moved >= 0 then begin
        stats.merges <- stats.merges + 1;
        stats.records_moved <- stats.records_moved + moved
      end;
      pass ()
  in
  pass ()

(* Exchange the contents of two leaves, or move a leaf into a free page —
   two blocks per transaction, full-page logging. *)
let swap_blocks tree tx ~a ~b =
  let pa = page tree a and pb = page tree b in
  let ra = Leaf.records pa and rb = Leaf.records pb in
  let la = Leaf.low_mark pa and lb = Leaf.low_mark pb in
  let linka = (Leaf.prev pa, Leaf.next pa) and linkb = (Leaf.prev pb, Leaf.next pb) in
  let tr = function Some p when p = a -> Some b | Some p when p = b -> Some a | x -> x in
  let ea = entry_key_of_leaf tree a and eb = entry_key_of_leaf tree b in
  whole_page tree ~txn:tx b (fun p ->
      Leaf.init p ~low_mark:la;
      List.iter (fun r -> assert (Leaf.insert p r)) ra;
      Leaf.set_prev p (tr (fst linka));
      Leaf.set_next p (tr (snd linka)));
  whole_page tree ~txn:tx a (fun p ->
      Leaf.init p ~low_mark:lb;
      List.iter (fun r -> assert (Leaf.insert p r)) rb;
      Leaf.set_prev p (tr (fst linkb));
      Leaf.set_next p (tr (snd linkb)));
  let fix_neighbor n ~prev ~to_ =
    match n with
    | Some p when p <> a && p <> b ->
      whole_page tree ~txn:tx p (fun q ->
          if prev then Leaf.set_prev q (Some to_) else Leaf.set_next q (Some to_))
    | _ -> ()
  in
  fix_neighbor (fst linka) ~prev:false ~to_:b;
  fix_neighbor (snd linka) ~prev:true ~to_:b;
  fix_neighbor (fst linkb) ~prev:false ~to_:a;
  fix_neighbor (snd linkb) ~prev:true ~to_:a;
  let repoint entry ~from_ ~to_ =
    match entry with
    | Some (parent, key) ->
      whole_page tree ~txn:tx parent (fun p ->
          match Inode.find_key p key with
          | Some i ->
            let e = Inode.entry_at p i in
            if e.Inode.child = from_ then Inode.update_at p i { e with Inode.child = to_ }
          | None -> ())
    | None -> ()
  in
  repoint ea ~from_:a ~to_:b;
  repoint eb ~from_:b ~to_:a;
  List.length ra + List.length rb

let move_block tree tx ~org ~dest =
  let po = page tree org in
  let records = Leaf.records po in
  let low = Leaf.low_mark po in
  let prev = Leaf.prev po and next = Leaf.next po in
  Alloc.alloc_specific (Tree.alloc tree) dest;
  whole_page tree ~txn:tx dest (fun p ->
      Leaf.init p ~low_mark:low;
      List.iter (fun r -> assert (Leaf.insert p r)) records;
      Leaf.set_prev p prev;
      Leaf.set_next p next);
  (match prev with
  | Some q -> whole_page tree ~txn:tx q (fun p -> Leaf.set_next p (Some dest))
  | None -> ());
  (match next with
  | Some q -> whole_page tree ~txn:tx q (fun p -> Leaf.set_prev p (Some dest))
  | None -> ());
  let entry = entry_key_of_leaf tree org in
  (match entry with
  | Some (parent, key) ->
    whole_page tree ~txn:tx parent (fun p ->
        match Inode.find_key p key with
        | Some i ->
          let e = Inode.entry_at p i in
          Inode.update_at p i { e with Inode.child = dest }
        | None -> ())
  | None -> ());
  whole_page tree ~txn:tx org (fun p -> Page.set_kind p Page.kind_free);
  Alloc.release (Tree.alloc tree) org;
  List.length records

let order_leaves ~access stats =
  let tree = Access.tree access in
  let alloc = Tree.alloc tree in
  let order = Leaf_order.create tree in
  let continue_ = ref true in
  let frontier = ref 0 in
  while !continue_ do
    match Leaf_order.next order ~from:!frontier with
    | None -> continue_ := false
    | Some i ->
      let pid = Leaf_order.leaf order i and target = Leaf_order.slot order i in
      let result =
        block_op ~access stats (fun tx ->
            (* Decide under the file lock. *)
            if not (Leaf.is_leaf (page tree pid)) then `Stale
            else if Alloc.is_free alloc target then
              `Moved (move_block tree tx ~org:pid ~dest:target)
            else if Leaf.is_leaf (page tree target) then
              `Swapped (swap_blocks tree tx ~a:pid ~b:target)
            else `Stale)
      in
      (match result with
      | `Moved n ->
        stats.moves <- stats.moves + 1;
        stats.records_moved <- stats.records_moved + n;
        Leaf_order.moved order ~org:pid ~dest:target
      | `Swapped n ->
        stats.swaps <- stats.swaps + 1;
        stats.records_moved <- stats.records_moved + n;
        Leaf_order.swapped order pid target
      | `Stale -> Leaf_order.reload order);
      frontier := i + 1
  done

let reorganize ~access ~f2 =
  let stats = create_stats () in
  compact ~access ~f2 stats;
  order_leaves ~access stats;
  stats
