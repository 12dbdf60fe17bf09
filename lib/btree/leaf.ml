module Page = Pager.Page

type record = { key : int; payload : string }

let page_size p = Bytes.length p

let init p ~low_mark =
  Page.fill p 0 (page_size p) '\000';
  Page.set_kind p Layout.kind_leaf;
  Page.set_u8 p Layout.off_level 0;
  Page.set_u16 p Layout.off_count 0;
  Page.set_u16 p Layout.off_heap_top (page_size p);
  Page.set_key p Layout.off_low_mark low_mark;
  Page.set_u32 p Layout.off_prev Layout.nil_pid;
  Page.set_u32 p Layout.off_next Layout.nil_pid

let is_leaf p = Page.kind p = Layout.kind_leaf

let nrecords p = Page.get_u16 p Layout.off_count
let low_mark p = Page.get_key p Layout.off_low_mark
let set_low_mark p k = Page.set_key p Layout.off_low_mark k

let opt_pid v = if v = Layout.nil_pid then None else Some v
let pid_opt = function None -> Layout.nil_pid | Some v -> v

let prev p = opt_pid (Page.get_u32 p Layout.off_prev)
let next p = opt_pid (Page.get_u32 p Layout.off_next)
let set_prev p v = Page.set_u32 p Layout.off_prev (pid_opt v)
let set_next p v = Page.set_u32 p Layout.off_next (pid_opt v)

let heap_top p = Page.get_u16 p Layout.off_heap_top
let set_heap_top p v = Page.set_u16 p Layout.off_heap_top v

let slot_off i = Layout.body_start + (2 * i)
let slot p i = Page.get_u16 p (slot_off i)
let set_slot p i v = Page.set_u16 p (slot_off i) v

let key_at p i = Page.get_key p (slot p i)

let payload_at p i =
  let off = slot p i in
  let len = Page.get_u16 p (off + 8) in
  Page.sub p (off + 10) len

let record_at p i = { key = key_at p i; payload = payload_at p i }

let record_size_at p i =
  let off = slot p i in
  Layout.record_header + Page.get_u16 p (off + 8)

(* Binary search: index of the first slot with key >= k, in [0, n].  A
   loop, not a local recursive function: that would allocate a closure per
   call. *)
let lower_bound p k =
  let lo = ref 0 and hi = ref (nrecords p) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key_at p mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_at p i k = i < nrecords p && key_at p i = k

let index_of p k =
  let i = lower_bound p k in
  if mem_at p i k then Some i else None

let find p k =
  let i = lower_bound p k in
  if mem_at p i k then Some (payload_at p i) else None

let mem p k = mem_at p (lower_bound p k) k

let min_key p = if nrecords p = 0 then None else Some (key_at p 0)
let max_key p = if nrecords p = 0 then None else Some (key_at p (nrecords p - 1))

let records p = List.init (nrecords p) (record_at p)
let keys p = List.init (nrecords p) (key_at p)

let rev_range p ~lo ~hi acc =
  let n = nrecords p in
  let rec go i acc =
    if i >= n then acc
    else
      let key = key_at p i in
      if key > hi then acc else go (i + 1) ({ key; payload = payload_at p i } :: acc)
  in
  go (lower_bound p lo) acc

let record_bytes r = Layout.record_header + String.length r.payload + 2

let live_bytes p =
  let n = nrecords p in
  let total = ref (2 * n) in
  for i = 0 to n - 1 do
    total := !total + record_size_at p i
  done;
  !total

let usable p = Layout.usable_bytes ~page_size:(page_size p)

let free_bytes p = usable p - live_bytes p

let contiguous_free_bytes p = heap_top p - slot_off (nrecords p)

let fill_factor p = float_of_int (live_bytes p) /. float_of_int (usable p)

let fits p r = free_bytes p >= record_bytes r

let compact p =
  let rs = List.init (nrecords p) (fun i -> (i, record_at p i)) in
  let top = ref (page_size p) in
  (* Write records back tightly from the end; slots keep their order. *)
  List.iter
    (fun (i, r) ->
      let size = Layout.record_header + String.length r.payload in
      top := !top - size;
      Page.set_key p !top r.key;
      Page.set_u16 p (!top + 8) (String.length r.payload);
      Bytes.blit_string r.payload 0 p (!top + 10) (String.length r.payload);
      set_slot p i !top)
    rs;
  set_heap_top p !top

let write_record p r =
  let size = Layout.record_header + String.length r.payload in
  let top = heap_top p - size in
  Page.set_key p top r.key;
  Page.set_u16 p (top + 8) (String.length r.payload);
  Bytes.blit_string r.payload 0 p (top + 10) (String.length r.payload);
  set_heap_top p top;
  top

let insert_at p i r =
  (* Shift slots [i, n) up by one and write the record. *)
  let n = nrecords p in
  let off = write_record p r in
  for j = n downto i + 1 do
    set_slot p j (slot p (j - 1))
  done;
  set_slot p i off;
  Page.set_u16 p Layout.off_count (n + 1)

let insert p r =
  let i = lower_bound p r.key in
  if i < nrecords p && key_at p i = r.key then
    invalid_arg (Printf.sprintf "Leaf.insert: duplicate key %d" r.key);
  if free_bytes p < record_bytes r then false
  else begin
    if contiguous_free_bytes p < record_bytes r then compact p;
    insert_at p (lower_bound p r.key) r;
    true
  end

let delete_at p i =
  let n = nrecords p in
  for j = i to n - 2 do
    set_slot p j (slot p (j + 1))
  done;
  Page.set_u16 p Layout.off_count (n - 1);
  if n - 1 = 0 then set_heap_top p (page_size p)

let delete p k =
  match index_of p k with
  | None -> None
  | Some i ->
    let payload = payload_at p i in
    delete_at p i;
    Some payload

let replace p r =
  (match index_of p r.key with Some i -> delete_at p i | None -> ());
  if free_bytes p < record_bytes r then false
  else begin
    if contiguous_free_bytes p < record_bytes r then compact p;
    insert_at p (lower_bound p r.key) r;
    true
  end

let split_point p =
  let n = nrecords p in
  let half = live_bytes p / 2 in
  let rec go i acc = if i >= n - 1 then i else
      let acc = acc + record_size_at p i + 2 in
      if acc >= half then i + 1 else go (i + 1) acc
  in
  max 1 (go 0 0)

let take_from p i =
  let n = nrecords p in
  let moved = List.init (n - i) (fun j -> record_at p (i + j)) in
  Page.set_u16 p Layout.off_count i;
  if i = 0 then set_heap_top p (page_size p) else compact p;
  moved

let clear p =
  Page.set_u16 p Layout.off_count 0;
  set_heap_top p (page_size p)
