module Page = Pager.Page
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Journal = Transact.Journal
module Txn = Transact.Txn

type t = { journal : Journal.t; alloc : Alloc.t; meta_pid : int; olc : Olc.t }

exception Duplicate_key of int
exception Record_too_large of int
exception Not_a_node of int

let journal t = t.journal
let pool t = Journal.pool t.journal
let alloc t = t.alloc
let meta_pid t = t.meta_pid
let olc t = t.olc

let page t pid = Buffer_pool.get (pool t) pid

let page_size t = Buffer_pool.page_size (pool t)

(* Whole-page logged mutation (structural).  The before/after images include
   the header; redo re-stamps the LSN afterwards, so the stale LSN bytes in
   the image are harmless.  Every structural page write bumps the page's
   OLC version so in-flight optimistic descents re-validate. *)
let physical t ?txn pid f =
  Journal.physical t.journal ?txn ~page:pid ~off:0 ~len:(page_size t) f;
  Olc.bump t.olc pid

(* Narrow logged mutation for body-only edits on internal pages. *)
let physical_body t ?txn pid f =
  Journal.physical t.journal ?txn ~page:pid ~off:Layout.off_level
    ~len:(page_size t - Layout.off_level) f;
  Olc.bump t.olc pid

let meta t = page t t.meta_pid

let root t = Meta.root (meta t)
let tree_name t = Meta.tree_name (meta t)
let reorg_bit t = Meta.reorg_bit (meta t)

let set_root t ?txn pid = physical t ?txn t.meta_pid (fun p -> Meta.set_root p pid)

let set_reorg_bit t v =
  physical t t.meta_pid (fun p -> Meta.set_reorg_bit p v)

let generation t = Meta.generation (meta t)
let set_generation t ?txn g = physical t ?txn t.meta_pid (fun p -> Meta.set_generation p g)

let create ?olc ~journal ~alloc ~meta_pid ~tree_name () =
  let olc = match olc with Some o -> o | None -> Olc.create () in
  let t = { journal; alloc; meta_pid; olc } in
  let root_pid = Alloc.alloc alloc Pager.Alloc.Leaf in
  physical t root_pid (fun p -> Leaf.init p ~low_mark:min_int);
  physical t meta_pid (fun p -> Meta.init p ~root:root_pid ~tree_name);
  t

(* A scratch tree attached over the same file (pass 3) must share the
   file's version table — page ids are file-global. *)
let attach ?olc ~journal ~alloc ~meta_pid () =
  let olc = match olc with Some o -> o | None -> Olc.create () in
  { journal; alloc; meta_pid; olc }

(* ------------------------------------------------------------------ *)
(* Descent                                                             *)
(* ------------------------------------------------------------------ *)

(* If a base entry is missing (λ-switch mode lets post-switch splits skip
   the new tree's base pages), the descent can land one leaf early; chase
   the side pointers right while the key belongs further on. *)
let rec chase_right t key pid =
  let p = page t pid in
  match Leaf.next p with
  | Some nxt when Leaf.low_mark (page t nxt) <= key -> chase_right t key nxt
  | _ -> pid

(* The child of internal page [pid] covering [key].  A page that is
   neither a leaf nor an internal node (a freed page still holding its old
   entries) ends the descent: read as a node it can lead back up the tree,
   and the descent would never stop. *)
let child_pid pid p key =
  if Inode.is_internal p then Inode.child_for p key else raise (Not_a_node pid)

let descend_path t key =
  let rec go pid acc =
    let p = page t pid in
    if Leaf.is_leaf p then List.rev (pid :: acc) else go (child_pid pid p key) (pid :: acc)
  in
  go (root t) []

(* Read paths chase; structural paths (descend_path/parent_of_leaf users)
   stay on the exact descent so parent chains match. *)
let find_leaf t key =
  match List.rev (descend_path t key) with
  | leaf :: _ -> chase_right t key leaf
  | [] -> assert false

let parent_of_leaf t key =
  match List.rev (descend_path t key) with _ :: parent :: _ -> Some parent | _ -> None

let height t =
  let rec go pid n =
    let p = page t pid in
    if Leaf.is_leaf p then n else go (Inode.entry_at p 0).Inode.child (n + 1)
  in
  go (root t) 1

let rec leftmost_leaf t pid =
  let p = page t pid in
  if Leaf.is_leaf p then pid else leftmost_leaf t (Inode.entry_at p 0).Inode.child

let first_leaf t = leftmost_leaf t (root t)

let first_base t =
  let rec go pid =
    let p = page t pid in
    if Leaf.is_leaf p then None
    else if Inode.level p = 1 then Some pid
    else go (Inode.entry_at p 0).Inode.child
  in
  go (root t)

let next_base t k =
  (* Smallest base-page low mark strictly greater than k. *)
  let rec go pid =
    let p = page t pid in
    if Leaf.is_leaf p then None
    else if Inode.level p = 1 then if Inode.low_mark p > k then Some pid else None
    else begin
      let n = Inode.nentries p in
      let start =
        (* children before the one covering k cannot contain low marks > k
           that are smaller than those in the covering child *)
        try Inode.child_index_for p k with Not_found -> 0
      in
      let rec scan i =
        if i >= n then None
        else
          match go (Inode.entry_at p i).Inode.child with
          | Some b -> Some b
          | None -> scan (i + 1)
      in
      scan start
    end
  in
  go (root t)

(* ------------------------------------------------------------------ *)
(* Search / range                                                      *)
(* ------------------------------------------------------------------ *)

let search t key = Leaf.find (page t (find_leaf t key)) key

let range t ~lo ~hi =
  let rec walk pid acc =
    let p = page t pid in
    let acc = Leaf.rev_range p ~lo ~hi acc in
    match Leaf.max_key p with
    | Some k when k > hi -> acc
    | _ -> begin
      match Leaf.next p with None -> acc | Some nxt -> walk nxt acc
    end
  in
  List.rev (walk (find_leaf t lo) [])

let rec iter_chain t pid f =
  let p = page t pid in
  f pid p;
  match Leaf.next p with None -> () | Some nxt -> iter_chain t nxt f

let iter_leaves t f = iter_chain t (first_leaf t) f

let leaf_pids t =
  let acc = ref [] in
  iter_leaves t (fun pid _ -> acc := pid :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

let note_base_edit t ?on_base_edit pid (op : Wal.Record.side_op) =
  match on_base_edit with
  | None -> ()
  | Some f -> if Inode.level (page t pid) = 1 then f op

(* Insert [entry] into the internal node at the head of [parents] (a
   bottom-up list of ancestor pids), splitting upwards as needed. *)
let rec insert_entry t ?txn ?on_base_edit parents (entry : Inode.entry) =
  match parents with
  | [] ->
    (* The split reached the top: grow the tree with a new root. *)
    let old_root = root t in
    let old_p = page t old_root in
    let old_low, old_level =
      if Leaf.is_leaf old_p then (Leaf.low_mark old_p, 0)
      else (Inode.low_mark old_p, Inode.level old_p)
    in
    let new_root = Alloc.alloc t.alloc Pager.Alloc.Internal in
    physical t ?txn new_root (fun p ->
        Inode.init p ~level:(old_level + 1) ~low_mark:old_low;
        assert (Inode.insert p { Inode.key = old_low; child = old_root });
        assert (Inode.insert p entry));
    set_root t ?txn new_root
  | parent :: ancestors ->
    let p = page t parent in
    if Inode.nentries p < Inode.capacity p then begin
      physical_body t ?txn parent (fun p -> assert (Inode.insert p entry));
      note_base_edit t ?on_base_edit parent
        (Wal.Record.Side_insert { key = entry.Inode.key; child = entry.Inode.child })
    end
    else begin
      (* Split the internal node. *)
      let sp = Inode.split_point p in
      let split_key = (Inode.entry_at p sp).Inode.key in
      let new_pid = Alloc.alloc t.alloc Pager.Alloc.Internal in
      let level = Inode.level p in
      let gen = Inode.generation p in
      (* Each page's mutation is logged as its own record so redo covers
         both halves of the split. *)
      let moved = List.filteri (fun i _ -> i >= sp) (Inode.entries p) in
      physical t ?txn new_pid (fun np ->
          Inode.init np ~level ~low_mark:split_key;
          Inode.set_generation np gen;
          List.iter (fun e -> assert (Inode.insert np e)) moved);
      physical_body t ?txn parent (fun p -> ignore (Inode.take_from p sp));
      (* Route the pending entry to the correct half. *)
      let target = if entry.Inode.key >= split_key then new_pid else parent in
      physical_body t ?txn target (fun p -> assert (Inode.insert p entry));
      note_base_edit t ?on_base_edit target
        (Wal.Record.Side_insert { key = entry.Inode.key; child = entry.Inode.child });
      insert_entry t ?txn ?on_base_edit ancestors { Inode.key = split_key; child = new_pid }
    end

let split_leaf t ?txn ?on_base_edit path leaf_pid =
  let p = page t leaf_pid in
  let sp = Leaf.split_point p in
  let new_pid = Alloc.alloc t.alloc Pager.Alloc.Leaf in
  let old_next = Leaf.next p in
  let moved = List.filteri (fun i _ -> i >= sp) (Leaf.records p) in
  let moved_low = (List.hd moved).Leaf.key in
  physical t ?txn new_pid (fun np ->
      Leaf.init np ~low_mark:moved_low;
      List.iter (fun r -> assert (Leaf.insert np r)) moved;
      Leaf.set_prev np (Some leaf_pid);
      Leaf.set_next np old_next);
  physical t ?txn leaf_pid (fun p ->
      ignore (Leaf.take_from p sp);
      Leaf.set_next p (Some new_pid));
  (match old_next with
  | Some nn -> physical t ?txn nn (fun p -> Leaf.set_prev p (Some new_pid))
  | None -> ());
  let parents = match List.rev path with _leaf :: ps -> ps | [] -> [] in
  insert_entry t ?txn ?on_base_edit parents { Inode.key = moved_low; child = new_pid }

let max_payload t = Layout.usable_bytes ~page_size:(page_size t) - Layout.record_header - 2

let rec insert_gen t ?txn ?on_base_edit ~logged ~key ~payload () =
  if String.length payload > max_payload t / 2 then raise (Record_too_large key);
  let path = descend_path t key in
  let leaf_pid = List.nth path (List.length path - 1) in
  let p = page t leaf_pid in
  if Leaf.mem p key then raise (Duplicate_key key);
  let r = { Leaf.key; payload } in
  if Leaf.fits p r then begin
    (match (logged, txn) with
    | true, Some txn -> ignore (Journal.log_leaf_insert t.journal ~txn ~page:leaf_pid ~key ~payload)
    | _ ->
      (* Unlogged record apply (CLR-driven undo or redo): mark dirty but
         leave the page LSN to the caller's record, if any. *)
      Buffer_pool.mark_dirty (pool t) leaf_pid);
    assert (Leaf.insert p r)
  end
  else begin
    (* Seal the split as a nested top action: it must survive this
       transaction's rollback, because other transactions may commit
       records into the new halves before this one finishes (it may still
       be blocked on locks — or off writing other shards — for a long
       time).  An unsealed (torn) sequence is still undone physically, which
       stays sound: the log is sequential, so a lost seal means everything
       after it is lost too. *)
    Journal.with_nta t.journal ?txn (fun () -> split_leaf t ?txn ?on_base_edit path leaf_pid);
    insert_gen t ?txn ?on_base_edit ~logged ~key ~payload ()
  end

let insert t ~txn ?on_base_edit ~key ~payload () =
  insert_gen t ~txn ?on_base_edit ~logged:true ~key ~payload ()

let apply_insert t ~key ~payload =
  match insert_gen t ~logged:false ~key ~payload () with
  | () -> ()
  | exception Duplicate_key _ -> () (* idempotent re-apply *)

(* ------------------------------------------------------------------ *)
(* Delete with free-at-empty                                           *)
(* ------------------------------------------------------------------ *)

let unlink_leaf t ?txn pid =
  let p = page t pid in
  let pv = Leaf.prev p and nx = Leaf.next p in
  (match pv with
  | Some q -> physical t ?txn q (fun qp -> Leaf.set_next qp nx)
  | None -> ());
  (match nx with
  | Some q -> physical t ?txn q (fun qp -> Leaf.set_prev qp pv)
  | None -> ())

let dealloc_page t ?txn pid =
  physical t ?txn pid (fun p -> Page.set_kind p Page.kind_free);
  Alloc.release t.alloc pid

(* Remove the entry pointing at [child] from the internal node chain along
   [parents] (bottom-up), deallocating nodes emptied on the way. *)
let rec remove_entry t ?txn ?on_base_edit parents child =
  match parents with
  | [] ->
    (* The root itself emptied: reformat it as an empty leaf so the tree
       always has a root. *)
    let r = root t in
    physical t ?txn r (fun p -> Leaf.init p ~low_mark:min_int)
  | parent :: ancestors ->
    let p = page t parent in
    (match Inode.find_child p child with
    | None -> invalid_arg "Tree.remove_entry: child not in parent"
    | Some i ->
      let e = Inode.entry_at p i in
      physical_body t ?txn parent (fun p -> Inode.delete_at p i);
      note_base_edit t ?on_base_edit parent
        (Wal.Record.Side_delete { key = e.Inode.key; child = e.Inode.child }));
    if Inode.nentries (page t parent) = 0 then
      if parent = root t then
        (* The root emptied: reformat it in place as an empty leaf. *)
        physical t ?txn parent (fun p -> Leaf.init p ~low_mark:min_int)
      else begin
        dealloc_page t ?txn parent;
        remove_entry t ?txn ?on_base_edit ancestors parent
      end

let free_at_empty t ?txn ?on_base_edit path leaf_pid =
  unlink_leaf t ?txn leaf_pid;
  dealloc_page t ?txn leaf_pid;
  let parents = match List.rev path with _leaf :: ps -> ps | [] -> [] in
  remove_entry t ?txn ?on_base_edit parents leaf_pid

let delete_gen t ?txn ?on_base_edit ~logged key =
  let path = descend_path t key in
  let leaf_pid = List.nth path (List.length path - 1) in
  let p = page t leaf_pid in
  match Leaf.find p key with
  | None -> None
  | Some payload ->
    (match (logged, txn) with
    | true, Some txn -> ignore (Journal.log_leaf_delete t.journal ~txn ~page:leaf_pid ~key ~payload)
    | _ -> Buffer_pool.mark_dirty (pool t) leaf_pid);
    ignore (Leaf.delete p key);
    if Leaf.nrecords (page t leaf_pid) = 0 && List.length path > 1 then
      Journal.with_nta t.journal ?txn (fun () ->
          free_at_empty t ?txn ?on_base_edit path leaf_pid);
    Some payload

let delete t ~txn ?on_base_edit key = delete_gen t ~txn ?on_base_edit ~logged:true key

let apply_delete t key = ignore (delete_gen t ~logged:false key)

let update t ~txn ?on_base_edit ~key ~payload () =
  match delete t ~txn ?on_base_edit key with
  | None -> None
  | Some old ->
    insert_gen t ~txn ?on_base_edit ~logged:true ~key ~payload ();
    Some old

(* ------------------------------------------------------------------ *)
(* Base-entry operations (pass-3 catch-up)                             *)
(* ------------------------------------------------------------------ *)

(* Path of internal pages from the root down to (and including) the base
   page covering [key].  Empty when the root is a leaf. *)
let base_path t key =
  let rec go pid acc =
    let p = page t pid in
    if Leaf.is_leaf p then List.rev acc
    else if Inode.level p = 1 then List.rev (pid :: acc)
    else go (child_pid pid p key) (pid :: acc)
  in
  go (root t) []

let insert_base_entry t ?txn ~key ~child () =
  match List.rev (base_path t key) with
  | [] -> invalid_arg "Tree.insert_base_entry: tree has no base pages"
  | base :: ancestors ->
    if Inode.find_key (page t base) key = None then
      Journal.with_nta t.journal ?txn (fun () ->
          insert_entry t ?txn (base :: ancestors) { Inode.key; child })

let delete_base_entry t ?txn key =
  match List.rev (base_path t key) with
  | [] -> invalid_arg "Tree.delete_base_entry: tree has no base pages"
  | base :: ancestors -> begin
    match Inode.find_key (page t base) key with
    | None -> ()
    | Some i ->
      Journal.with_nta t.journal ?txn (fun () ->
          physical_body t ?txn base (fun p -> Inode.delete_at p i);
          if Inode.nentries (page t base) = 0 then
            if base = root t then physical t ?txn base (fun p -> Leaf.init p ~low_mark:min_int)
            else begin
              dealloc_page t ?txn base;
              remove_entry t ?txn ancestors base
            end)
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  height : int;
  leaf_count : int;
  internal_count : int;
  record_count : int;
  avg_leaf_fill : float;
  min_leaf_fill : float;
}

let stats t =
  (* One root lookup, one descent, then each leaf and each internal page
     fixed once: the internal count stops at the base pages, whose children
     are the leaves the chain walk already saw. *)
  let root = root t in
  let leaves = ref 0 and records = ref 0 and fill_sum = ref 0.0 and fill_min = ref 1.0 in
  iter_chain t (leftmost_leaf t root) (fun _ p ->
      incr leaves;
      records := !records + Leaf.nrecords p;
      let f = Leaf.fill_factor p in
      fill_sum := !fill_sum +. f;
      if f < !fill_min then fill_min := f);
  let internal = ref 0 in
  (* Level of the page (0 for a leaf). *)
  let rec count pid =
    let p = page t pid in
    if Leaf.is_leaf p then 0
    else begin
      incr internal;
      let level = Inode.level p in
      if level > 1 then List.iter (fun e -> ignore (count e.Inode.child : int)) (Inode.entries p);
      level
    end
  in
  let height = count root + 1 in
  {
    height;
    leaf_count = !leaves;
    internal_count = !internal;
    record_count = !records;
    avg_leaf_fill = (if !leaves = 0 then 0.0 else !fill_sum /. float_of_int !leaves);
    min_leaf_fill = (if !leaves = 0 then 0.0 else !fill_min);
  }
