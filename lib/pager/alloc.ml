module Iset = Set.Make (Int)

type zone = Leaf | Internal

type t = {
  pool : Buffer_pool.t;
  meta_pages : int;
  leaf_lo : int;
  leaf_hi : int; (* exclusive *)
  mutable free_leaf : Iset.t;
  mutable free_internal : Iset.t;
  mutable internal_hi : int; (* exclusive high-water mark of the disk *)
  mutable leaf_overflows : int;
  pending : (int, int) Hashtbl.t; (* page awaiting release -> durability dep *)
}

let topic = Obs.Bus.topic ()

type Obs.Bus.event += Allocated of int | Released of int

let note t ev =
  let bus = Buffer_pool.bus t.pool in
  if Obs.Bus.wants bus topic then Obs.Bus.emit bus topic ev

let create ~pool ~meta_pages ~leaf_pages =
  let leaf_lo = meta_pages in
  let leaf_hi = meta_pages + leaf_pages in
  Disk.grow (Buffer_pool.disk pool) leaf_hi;
  let rec range lo hi acc = if lo >= hi then acc else range (lo + 1) hi (Iset.add lo acc) in
  {
    pool;
    meta_pages;
    leaf_lo;
    leaf_hi;
    free_leaf = range leaf_lo leaf_hi Iset.empty;
    free_internal = Iset.empty;
    internal_hi = leaf_hi;
    leaf_overflows = 0;
    pending = Hashtbl.create 8;
  }

let leaf_zone t = (t.leaf_lo, t.leaf_hi)

let zone_of t pid = if pid >= t.leaf_lo && pid < t.leaf_hi then Leaf else Internal

let grow_internal t =
  let lo = t.internal_hi in
  let n = max 8 (lo / 4) in
  Disk.grow (Buffer_pool.disk t.pool) (lo + n);
  for pid = lo to lo + n - 1 do
    t.free_internal <- Iset.add pid t.free_internal
  done;
  t.internal_hi <- lo + n

(* Every successful allocation (zone alloc, alloc_specific, try_claim)
   funnels through here; every return to a free set goes through [release].
   The two events give the health tracker the allocator's full churn. *)
let recycle t pid =
  Buffer_pool.forget_dependencies t.pool pid;
  note t (Allocated pid);
  pid

let rec alloc t zone =
  match zone with
  | Leaf -> begin
    match Iset.min_elt_opt t.free_leaf with
    | Some pid ->
      t.free_leaf <- Iset.remove pid t.free_leaf;
      recycle t pid
    | None ->
      t.leaf_overflows <- t.leaf_overflows + 1;
      alloc t Internal
  end
  | Internal -> begin
    match Iset.min_elt_opt t.free_internal with
    | Some pid ->
      t.free_internal <- Iset.remove pid t.free_internal;
      recycle t pid
    | None ->
      grow_internal t;
      alloc t Internal
  end

let is_free t pid =
  match zone_of t pid with
  | Leaf -> Iset.mem pid t.free_leaf
  | Internal -> Iset.mem pid t.free_internal

let alloc_specific t pid =
  if not (is_free t pid) then
    invalid_arg (Printf.sprintf "Alloc.alloc_specific: page %d is not free" pid);
  (match zone_of t pid with
  | Leaf -> t.free_leaf <- Iset.remove pid t.free_leaf
  | Internal -> t.free_internal <- Iset.remove pid t.free_internal);
  ignore (recycle t pid)

let try_claim t pid =
  is_free t pid
  && begin
       alloc_specific t pid;
       true
     end

let release t pid =
  if pid < t.meta_pages then invalid_arg "Alloc.release: cannot free a meta page";
  if is_free t pid then
    invalid_arg (Printf.sprintf "Alloc.release: page %d already free" pid);
  (match zone_of t pid with
  | Leaf -> t.free_leaf <- Iset.add pid t.free_leaf
  | Internal -> t.free_internal <- Iset.add pid t.free_internal);
  note t (Released pid)

let free t pid =
  if pid < t.meta_pages then invalid_arg "Alloc.free: cannot free a meta page";
  if is_free t pid then invalid_arg (Printf.sprintf "Alloc.free: page %d already free" pid);
  let page = Buffer_pool.get t.pool pid in
  Page.set_kind page Page.kind_free;
  Buffer_pool.mark_dirty t.pool pid;
  release t pid

let free_when_durable t ~page ~after =
  Buffer_pool.on_durable t.pool after (fun () -> free t page)

let defer_release t ~page ~until_durable =
  if Buffer_pool.is_durable t.pool until_durable then release t page
  else begin
    Hashtbl.replace t.pending page until_durable;
    Buffer_pool.on_durable t.pool until_durable (fun () ->
        if Hashtbl.mem t.pending page then begin
          Hashtbl.remove t.pending page;
          release t page
        end)
  end

let pending_release t page = Hashtbl.find_opt t.pending page

let free_in_range t ~lo ~hi =
  let in_range s =
    match Iset.find_first_opt (fun p -> p >= lo) s with
    | Some p when p < hi -> Some p
    | _ -> None
  in
  match in_range t.free_leaf with
  | Some _ as r -> r
  | None -> in_range t.free_internal

let free_count t zone =
  match zone with
  | Leaf -> Iset.cardinal t.free_leaf
  | Internal -> Iset.cardinal t.free_internal

let leaf_overflows t = t.leaf_overflows

let rebuild t =
  let disk = Buffer_pool.disk t.pool in
  Hashtbl.reset t.pending;
  t.free_leaf <- Iset.empty;
  t.free_internal <- Iset.empty;
  t.internal_hi <- Disk.page_count disk;
  for pid = t.meta_pages to Disk.page_count disk - 1 do
    let kind =
      if Buffer_pool.in_pool t.pool pid then Page.kind (Buffer_pool.get t.pool pid)
      else Page.kind (Disk.peek disk pid)
    in
    if kind = Page.kind_free then
      match zone_of t pid with
      | Leaf -> t.free_leaf <- Iset.add pid t.free_leaf
      | Internal -> t.free_internal <- Iset.add pid t.free_internal
  done
