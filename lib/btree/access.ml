module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr
module Lock_client = Transact.Lock_client
module Txn = Transact.Txn
module Txn_mgr = Transact.Txn_mgr
module Engine = Sched.Engine

type t = {
  tree : Tree.t;
  mgr : Txn_mgr.t;
  record_locking : bool;
  mutable on_base_update : (Txn.t -> Wal.Record.side_op -> unit) option;
  mutable side_undo : (Wal.Record.side_op -> unit) option;
  mutable olc_enabled : bool;
  mutable olc_max_retries : int;
}

let topic = Obs.Bus.topic ()

type Obs.Bus.event += Olc_read of { leaf : int; key : int; result : string option }

let olc_default = true
let olc_max_retries_default = 3

let create ~tree ~mgr ?(record_locking = false) () =
  {
    tree;
    mgr;
    record_locking;
    on_base_update = None;
    side_undo = None;
    olc_enabled = olc_default;
    olc_max_retries = olc_max_retries_default;
  }

let set_olc t ?(max_retries = olc_max_retries_default) enabled =
  t.olc_enabled <- enabled;
  t.olc_max_retries <- max_retries

let olc_enabled t = t.olc_enabled

let set_side_undo t f = t.side_undo <- Some f

let run_side_undo t op = match t.side_undo with Some f -> f op | None -> ()

let tree t = t.tree
let mgr t = t.mgr
let locks t = Txn_mgr.lock_mgr t.mgr
let bus t = Lock_mgr.bus (locks t)

let set_on_base_update t f = t.on_base_update <- Some f
let clear_on_base_update t = t.on_base_update <- None

let page_res pid = Resource.Page pid

let has_rx blockers = List.exists (fun (_, m) -> m = Mode.RX) blockers

(* The §4.1.2 give-up step: the requester has hit an RX on a leaf while
   holding [base] in mode [held_mode].  Release the base lock, wait out the
   reorganizer with an unconditional instant-duration RS on the base page,
   and return once it is over; the caller then re-locks the base and retries
   from it. *)
let give_up_and_wait t ~txn ~base ~held_mode =
  Txn.note_give_up txn;
  Lock_client.release (locks t) ~txn (page_res base) held_mode;
  Lock_client.instant (locks t) ~txn (page_res base) Mode.RS

(* S lock-couple from the root to the leaf covering [key], applying the RX
   give-up rule at the leaf step.  On return the caller holds [leaf_mode] on
   the leaf (and nothing else below the tree lock). *)
let rec descend_locked t ~txn ~key ~leaf_mode =
  let root = Tree.root t.tree in
  Lock_client.acquire (locks t) ~txn (page_res root) Mode.S;
  couple_down t ~txn ~key ~leaf_mode root

and couple_down t ~txn ~key ~leaf_mode cur =
  (* Holds S on [cur]. *)
  Engine.yield ();
  let p = Tree.page t.tree cur in
  if Leaf.is_leaf p then begin
    (* Root is a leaf: trade S for the leaf mode. *)
    if leaf_mode <> Mode.S then begin
      Lock_client.acquire (locks t) ~txn (page_res cur) leaf_mode;
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S
    end;
    cur
  end
  else begin
    let child = Inode.child_for p key in
    let child_is_leaf = Inode.level p = 1 in
    let mode = if child_is_leaf then leaf_mode else Mode.S in
    match Lock_client.try_acquire (locks t) ~txn (page_res child) mode with
    | `Granted ->
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S;
      if child_is_leaf then child else couple_down t ~txn ~key ~leaf_mode child
    | `Conflict blockers when child_is_leaf && has_rx blockers ->
      give_up_and_wait t ~txn ~base:cur ~held_mode:Mode.S;
      (* Reorganization of that unit is over; retry from the base page. *)
      Lock_client.acquire (locks t) ~txn (page_res cur) Mode.S;
      couple_down t ~txn ~key ~leaf_mode cur
    | `Conflict _ ->
      Lock_client.wait_queued (locks t) ~txn (page_res child) mode;
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S;
      if child_is_leaf then child else couple_down t ~txn ~key ~leaf_mode child
  end

(* ------------------------------------------------------------------ *)
(* Reader — locked protocol (Table 1)                                  *)
(* ------------------------------------------------------------------ *)

let read_locked t ~txn key =
  Lock_client.acquire (locks t) ~txn (Resource.Tree (Tree.tree_name t.tree)) Mode.IS;
  let leaf_mode = if t.record_locking then Mode.IS else Mode.S in
  let leaf = descend_locked t ~txn ~key ~leaf_mode in
  if t.record_locking then Lock_client.acquire (locks t) ~txn (Resource.Rec key) Mode.S;
  Leaf.find (Tree.page t.tree leaf) key

let rec range_read_locked t ~txn ~lo ~hi =
  Lock_client.acquire (locks t) ~txn (Resource.Tree (Tree.tree_name t.tree)) Mode.IS;
  let leaf = descend_locked t ~txn ~key:lo ~leaf_mode:Mode.S in
  walk_chain t ~txn ~lo ~hi leaf []

and walk_chain t ~txn ~lo ~hi cur acc =
  (* Holds S on [cur]. *)
  Engine.yield ();
  let p = Tree.page t.tree cur in
  let acc = Leaf.rev_range p ~lo ~hi acc in
  let stop = match Leaf.max_key p with Some k when k > hi -> true | _ -> false in
  match (stop, Leaf.next p) with
  | true, _ | _, None -> List.rev acc
  | false, Some nxt -> begin
    let resume_from =
      match Leaf.max_key p with Some k -> k + 1 | None -> lo
    in
    match Lock_client.try_acquire (locks t) ~txn (page_res nxt) Mode.S with
    | `Granted ->
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S;
      walk_chain t ~txn ~lo ~hi nxt acc
    | `Conflict blockers when has_rx blockers ->
      (* The next leaf is being reorganized: drop out of the chain, wait on
         its parent, and re-descend for the continuation key. *)
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S;
      (match Tree.parent_of_leaf t.tree resume_from with
      | Some base -> Lock_client.instant (locks t) ~txn (page_res base) Mode.RS
      | None -> ());
      Txn.note_give_up txn;
      List.rev_append acc (range_read_locked t ~txn ~lo:resume_from ~hi)
    | `Conflict _ ->
      Lock_client.wait_queued (locks t) ~txn (page_res nxt) Mode.S;
      Lock_client.release (locks t) ~txn (page_res cur) Mode.S;
      walk_chain t ~txn ~lo ~hi nxt acc
  end

(* ------------------------------------------------------------------ *)
(* Reader — optimistic lock coupling (FB+-tree style)                  *)
(* ------------------------------------------------------------------ *)

(* Lock-free descent: between two scheduler yields everything is atomic, so
   a step only has to prove that the pointer it followed {e across} the last
   yield is still live.  It captures the version of the node it is standing
   on, yields, then re-validates epoch (crash invalidation), the
   active-unit gauge (records may be mid-move between org and dest — the
   one window where reading current page contents is not enough), and the
   captured version (the node was not split/cleared/freed/swapped since, so
   its child and side pointers are still the tree's).  If the node did
   change but the page holding the pointer into it did not, that pointer is
   still the tree's (every split, merge and free of an internal node also
   writes its parent in the same atomic step), and the descent reads the
   node as it is now, once its level and low mark agree with the pointer: a
   locked reader held up there by the writer would resume at the same node,
   not at the root.  Page contents are always read fresh inside the
   post-validation atomic step, which is why record-level inserts/deletes
   need no versioning at all.

   The descent yields where [couple_down] does: once per internal node.
   From a base page (level 1) it steps onto the leaf in the same atomic
   step that read the child pointer, as [couple_down] takes the leaf lock
   there, so that pointer needs no validation.  At the leaf it chases side
   pointers B-link-style (splits move records right, never left).

   The caller then probes, without enqueuing, whether a locked reader
   arriving at this instant would be granted IS on the tree and S on the
   leaf.  A clean probe plus valid versions means the locked reader would
   read the same bytes.  A refused probe is not a version conflict: a
   holder (a reorganization unit's RX, an updater's X, an offline
   rebuild's tree X) is still there, so the reader takes the locked path
   at once and waits it out by the paper's rules. *)

exception Olc_conflict

(* [p] is leaf [pid]'s page; the key can only have moved right of it, and
   only when every record left in [p] is below the key. *)
let rec chase t ~key pid p =
  match (Leaf.max_key p, Leaf.next p) with
  | Some k, _ when k >= key -> pid
  | _, None -> pid
  | _, Some nxt -> begin
    match Tree.page t.tree nxt with
    | np when Leaf.is_leaf np && Leaf.low_mark np <= key -> chase t ~key nxt np
    | _ -> pid
    | exception _ -> pid
  end

let olc_descend t olc ~key =
  let epoch0 = Olc.epoch olc in
  if Olc.active olc then raise Olc_conflict;
  (* [parent] is the page that held the pointer into [cur], its version
     when it was read, and the level that pointer promises ([None] at the
     root). *)
  let rec go parent cur vcur =
    Engine.yield ();
    if Olc.epoch olc <> epoch0 || Olc.active olc then raise Olc_conflict;
    let v = Olc.version olc cur in
    (* [cur] changed: accept it only through an unchanged parent, and only
       if it is still what the parent's pointer promises — an internal node
       of the next level down whose range does not start past the key (a
       node too far left is harmless: the leaf chase goes right). *)
    let promised =
      if v = vcur then None
      else
        match parent with
        | Some (pp, vp, level) when Olc.version olc pp = vp -> Some level
        | _ -> raise Olc_conflict
    in
    let p = match Tree.page t.tree cur with p -> p | exception _ -> raise Olc_conflict in
    (match promised with
    | Some level
      when not (Inode.is_internal p && Inode.level p = level && Inode.low_mark p <= key) ->
      raise Olc_conflict
    | _ -> ());
    if Leaf.is_leaf p then chase t ~key cur p
    else if Inode.is_internal p then begin
      let child = Inode.child_for p key in
      let level = Inode.level p in
      if level > 1 then go (Some (cur, v, level - 1)) child (Olc.version olc child)
      else
        match Tree.page t.tree child with
        | cp when Leaf.is_leaf cp -> chase t ~key child cp
        | _ -> raise Olc_conflict
        | exception _ -> raise Olc_conflict
    end
    else
      (* Freed (or being reformatted) since the parent was read. *)
      raise Olc_conflict
  in
  let root = Tree.root t.tree in
  go None root (Olc.version olc root)

let locks_free t ~txn leaf =
  let owner = txn.Txn.id in
  Lock_mgr.probe (locks t) ~owner (Resource.Tree (Tree.tree_name t.tree)) Mode.IS
  && Lock_mgr.probe (locks t) ~owner (page_res leaf) Mode.S

let olc_read t ~txn key =
  let olc = Tree.olc t.tree in
  let fallback () =
    Olc.note_fallback olc;
    read_locked t ~txn key
  in
  let rec attempt tries =
    match olc_descend t olc ~key with
    | leaf when locks_free t ~txn leaf ->
      (* Same atomic step as the descent's last page read. *)
      let res = Leaf.find (Tree.page t.tree leaf) key in
      Olc.note_read olc;
      let bus = bus t in
      if Obs.Bus.wants bus topic then Obs.Bus.emit bus topic (Olc_read { leaf; key; result = res });
      res
    | _ -> fallback ()
    | exception Olc_conflict ->
      (* A re-descent starts by checking [Olc.active] without yielding: while
         a unit is in flight every retry would fail the same check. *)
      if tries < t.olc_max_retries && not (Olc.active olc) then begin
        Olc.note_retry olc;
        attempt (tries + 1)
      end
      else fallback ()
  in
  attempt 0

let olc_range_read t ~txn ~lo ~hi =
  let olc = Tree.olc t.tree in
  let epoch0 = Olc.epoch olc in
  (* [acc] is reversed; every record in it was collected inside a validated
     atomic step, so a fallback only needs the locked protocol for the
     remainder of the key range. *)
  let rec attempt ~from acc tries =
    match olc_descend t olc ~key:from with
    | leaf -> visit ~from acc tries leaf
    | exception Olc_conflict -> conflict ~from acc tries
  and conflict ~from acc tries =
    if tries < t.olc_max_retries && not (Olc.active olc) then begin
      Olc.note_retry olc;
      attempt ~from acc (tries + 1)
    end
    else fallback ~from acc
  and fallback ~from acc =
    Olc.note_fallback olc;
    List.rev_append acc (range_read_locked t ~txn ~lo:from ~hi)
  and visit ~from acc tries leaf =
    (* Step onto [leaf] as [walk_chain] does, with one yield; the pointer
       to it was read in the step that captures its version. *)
    let v = Olc.version olc leaf in
    Engine.yield ();
    if Olc.epoch olc <> epoch0 || Olc.active olc || Olc.version olc leaf <> v then
      (* The chain moved under us: re-descend for the continuation key
         (the records gathered so far stay good). *)
      conflict ~from acc tries
    else if not (locks_free t ~txn leaf) then fallback ~from acc
    else
      match Tree.page t.tree leaf with
      | p when Leaf.is_leaf p -> collect ~from acc tries p
      | _ -> conflict ~from acc tries
      | exception _ -> conflict ~from acc tries
  and collect ~from acc tries p =
    (* Collect from [from], not [lo]: after a conflict re-descent the leaf
       covering the continuation key may have absorbed records in [lo, from)
       already in [acc] (leaf merge / reorg compact), and the first attempt
       starts with from = lo anyway. *)
    let acc = Leaf.rev_range p ~lo:from ~hi acc in
    let stop = match Leaf.max_key p with Some k when k > hi -> true | _ -> false in
    match (stop, Leaf.next p) with
    | true, _ | _, None ->
      Olc.note_read olc;
      List.rev acc
    | false, Some nxt ->
      let resume_from = match Leaf.max_key p with Some k -> k + 1 | None -> from in
      visit ~from:resume_from acc tries nxt
  in
  attempt ~from:lo [] 0

(* ------------------------------------------------------------------ *)
(* Reader — dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let read t ~txn key =
  if t.olc_enabled && not t.record_locking then olc_read t ~txn key
  else read_locked t ~txn key

let range_read t ~txn ~lo ~hi =
  if t.olc_enabled && not t.record_locking then olc_range_read t ~txn ~lo ~hi
  else range_read_locked t ~txn ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Updater                                                             *)
(* ------------------------------------------------------------------ *)

type op = Ins | Del

(* Will the operation need a structural (base-page) change? *)
let needs_structure t op ~key ~payload leaf =
  let p = Tree.page t.tree leaf in
  match op with
  | Ins -> not (Leaf.fits p { Leaf.key; payload })
  | Del -> Leaf.mem p key && Leaf.nrecords p = 1 && Tree.height t.tree > 1

let leaf_safe t op ~key ~payload pid =
  let p = Tree.page t.tree pid in
  match op with
  | Ins -> Leaf.fits p { Leaf.key; payload }
  | Del -> Leaf.nrecords p > 1 || not (Leaf.mem p key)

let inode_safe op p =
  match op with Ins -> Inode.nentries p < Inode.capacity p | Del -> Inode.nentries p >= 2

exception Restart

(* X lock-coupling descent for structure-modifying operations
   (Bayer–Schkolnick): hold X from the topmost unsafe node down to the leaf;
   acquiring a safe node releases all ancestors. *)
let descend_x t ~txn ~op ~key ~payload =
  let release_many pids =
    List.iter (fun pid -> Lock_client.release (locks t) ~txn (page_res pid) Mode.X) pids
  in
  let rec step held cur =
    Engine.yield ();
    let p = Tree.page t.tree cur in
    if Leaf.is_leaf p then (held, cur)
    else begin
      let child = Inode.child_for p key in
      let child_is_leaf = Inode.level p = 1 in
      (match Lock_client.try_acquire (locks t) ~txn (page_res child) Mode.X with
      | `Granted -> ()
      | `Conflict blockers when child_is_leaf && has_rx blockers ->
        (* Give up everything, wait out the unit on the base page, restart. *)
        release_many held;
        Txn.note_give_up txn;
        Lock_client.instant (locks t) ~txn (page_res cur) Mode.RS;
        raise Restart
      | `Conflict _ -> Lock_client.wait_queued (locks t) ~txn (page_res child) Mode.X);
      let safe =
        if child_is_leaf then leaf_safe t op ~key ~payload child
        else inode_safe op (Tree.page t.tree child)
      in
      let held =
        if safe then begin
          release_many held;
          [ child ]
        end
        else held @ [ child ]
      in
      if child_is_leaf then (held, child) else step held child
    end
  in
  let rec start () =
    let root = Tree.root t.tree in
    Lock_client.acquire (locks t) ~txn (page_res root) Mode.X;
    match step [ root ] root with
    | held, leaf -> (held, leaf)
    | exception Restart -> start ()
  in
  start ()

(* Collected during the structural change; forwarded to the side-file hook
   only if pass 3 is running (§7.2 tests the reorganization bit under the
   base page X lock, which the X descent holds). *)
let base_edit_sink edits op = edits := op :: !edits

let flush_base_edits t ~txn edits =
  match t.on_base_update with
  | Some hook when Tree.reorg_bit t.tree -> List.iter (fun op -> hook txn op) (List.rev !edits)
  | _ -> ()

let with_structure_locks t ~txn ~op ~key ~payload f =
  let held, leaf = descend_x t ~txn ~op ~key ~payload in
  let edits = ref [] in
  let result = f leaf ~on_base_edit:(fun e -> base_edit_sink edits e) in
  flush_base_edits t ~txn edits;
  (* Structure locks are released as soon as the change is done; the leaf
     lock is kept to end of transaction. *)
  List.iter
    (fun pid -> if pid <> leaf then Lock_client.release (locks t) ~txn (page_res pid) Mode.X)
    held;
  (match Lock_mgr.holds (locks t) ~owner:txn.Txn.id (page_res leaf) with
  | [] -> Lock_client.acquire (locks t) ~txn (page_res leaf) Mode.X
  | _ -> ());
  result

let insert t ~txn ~key ~payload =
  Lock_client.acquire (locks t) ~txn (Resource.Tree (Tree.tree_name t.tree)) Mode.IX;
  let leaf_mode = if t.record_locking then Mode.IX else Mode.X in
  let attempt () =
    let leaf = descend_locked t ~txn ~key ~leaf_mode in
    if t.record_locking then Lock_client.acquire (locks t) ~txn (Resource.Rec key) Mode.X;
    if needs_structure t Ins ~key ~payload leaf then begin
      (* §4.1.3: release and restart with X lock-coupling. *)
      Lock_client.release (locks t) ~txn (page_res leaf) leaf_mode;
      ignore
        (with_structure_locks t ~txn ~op:Ins ~key ~payload (fun _leaf ~on_base_edit ->
             Tree.insert t.tree ~txn ~on_base_edit ~key ~payload ()))
    end
    else
      (* The leaf is safe: the insert cannot touch any base page. *)
      Tree.insert t.tree ~txn ~key ~payload ()
  in
  attempt ()

let delete t ~txn key =
  Lock_client.acquire (locks t) ~txn (Resource.Tree (Tree.tree_name t.tree)) Mode.IX;
  let leaf_mode = if t.record_locking then Mode.IX else Mode.X in
  let leaf = descend_locked t ~txn ~key ~leaf_mode in
  if t.record_locking then Lock_client.acquire (locks t) ~txn (Resource.Rec key) Mode.X;
  if needs_structure t Del ~key ~payload:"" leaf then begin
    Lock_client.release (locks t) ~txn (page_res leaf) leaf_mode;
    with_structure_locks t ~txn ~op:Del ~key ~payload:"" (fun _leaf ~on_base_edit ->
        Tree.delete t.tree ~txn ~on_base_edit key)
  end
  else Tree.delete t.tree ~txn key

let update t ~txn ~key ~payload =
  (* Delete-then-insert through the full protocols: each step takes its own
     locks, and both stay held to end of transaction. *)
  match delete t ~txn key with
  | None -> None
  | Some old ->
    insert t ~txn ~key ~payload;
    Some old
