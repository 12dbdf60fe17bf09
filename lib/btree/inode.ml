module Page = Pager.Page

type entry = { key : int; child : int }

let page_size p = Bytes.length p

let init p ~level ~low_mark =
  Page.fill p 0 (page_size p) '\000';
  Page.set_kind p Layout.kind_internal;
  Page.set_u8 p Layout.off_level level;
  Page.set_u16 p Layout.off_count 0;
  Page.set_key p Layout.off_low_mark low_mark;
  Page.set_u32 p Layout.off_prev Layout.nil_pid;
  Page.set_u32 p Layout.off_next Layout.nil_pid

let is_internal p = Page.kind p = Layout.kind_internal
let level p = Page.get_u8 p Layout.off_level

let nentries p = Page.get_u16 p Layout.off_count

let capacity p = (page_size p - Layout.body_start) / Layout.entry_size

let low_mark p = Page.get_key p Layout.off_low_mark
let set_low_mark p k = Page.set_key p Layout.off_low_mark k

let generation p = Page.get_u16 p Layout.off_generation
let set_generation p g = Page.set_u16 p Layout.off_generation g

let entry_off i = Layout.body_start + (i * Layout.entry_size)

let entry_at p i =
  let off = entry_off i in
  { key = Page.get_key p off; child = Page.get_u32 p (off + 8) }

let set_entry p i e =
  let off = entry_off i in
  Page.set_key p off e.key;
  Page.set_u32 p (off + 8) e.child

let entries p = List.init (nentries p) (entry_at p)

let fill_factor p = float_of_int (nentries p) /. float_of_int (capacity p)

let key_at p i = Page.get_key p (entry_off i)
let child_at p i = Page.get_u32 p (entry_off i + 8)

(* First index with key >= k.  Keys are compared in place: a probe builds
   no [entry]. *)
let lower_bound p k =
  let lo = ref 0 and hi = ref (nentries p) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key_at p mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let child_index_for p k =
  let n = nentries p in
  if n = 0 then raise Not_found;
  let i = lower_bound p k in
  if i < n && key_at p i = k then i else max 0 (i - 1)

let child_for p k = child_at p (child_index_for p k)

let find_child p child =
  let n = nentries p in
  let rec go i = if i >= n then None else if child_at p i = child then Some i else go (i + 1) in
  go 0

let find_key p k =
  let i = lower_bound p k in
  if i < nentries p && key_at p i = k then Some i else None

let insert p e =
  let n = nentries p in
  if n >= capacity p then false
  else begin
    let i = lower_bound p e.key in
    if i < n && key_at p i = e.key then
      invalid_arg (Printf.sprintf "Inode.insert: duplicate key %d" e.key);
    for j = n downto i + 1 do
      set_entry p j (entry_at p (j - 1))
    done;
    set_entry p i e;
    Page.set_u16 p Layout.off_count (n + 1);
    true
  end

let delete_at p i =
  let n = nentries p in
  for j = i to n - 2 do
    set_entry p j (entry_at p (j + 1))
  done;
  Page.set_u16 p Layout.off_count (n - 1)

let delete_key p k =
  match find_key p k with
  | None -> None
  | Some i ->
    let e = entry_at p i in
    delete_at p i;
    Some e

let update_at p i e =
  if i < 0 || i >= nentries p then invalid_arg "Inode.update_at";
  (* The directory must stay sorted. *)
  if (i > 0 && (entry_at p (i - 1)).key >= e.key)
     || (i < nentries p - 1 && (entry_at p (i + 1)).key <= e.key)
  then invalid_arg "Inode.update_at: would break key order";
  set_entry p i e

let split_point p = nentries p / 2

let take_from p i =
  let n = nentries p in
  let moved = List.init (n - i) (fun j -> entry_at p (i + j)) in
  Page.set_u16 p Layout.off_count i;
  moved

let next_entry_key p k =
  let n = nentries p in
  let i = lower_bound p (k + 1) in
  if i < n then Some (key_at p i) else None
