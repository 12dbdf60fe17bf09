module Itbl = Util.Itbl

exception Cycle of int * int
exception Torn_page of int

type frame = {
  pid : int;
  data : Page.t;
  mutable dirty : bool;
  mutable rec_lsn : int64; (* page LSN when the frame last went clean->dirty *)
  mutable pins : int;
  mutable referenced : bool; (* clock second-chance bit *)
  mutable slot : int; (* index of this frame's entry in the clock ring *)
}

type stats = {
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_dep_flushes : int;
  s_evictions : int;
  s_torn_detected : int;
}

(* The "not resident" entry of the frame table.  It is never handed out and
   never mutated: every path checks for it with [==] first. *)
let absent =
  {
    pid = -1;
    data = Bytes.empty;
    dirty = false;
    rec_lsn = 0L;
    pins = 0;
    referenced = false;
    slot = -1;
  }

type t = {
  disk : Disk.t;
  capacity : int;
  (* Resident frames indexed by page id, [absent] where none is cached.
     Page ids are dense (the disk is an array of pages), so the table grows
     to the highest page id loaded and a hit is a bounds check plus a load. *)
  mutable frames : frame array;
  mutable resident : int; (* non-[absent] entries of [frames] *)
  (* Clock ring over resident frames, in arrival order.  Entries are pids;
     eviction leaves a [-1] tombstone (O(1) removal) which the next
     growth-time compaction squeezes out. *)
  mutable ring : int array;
  mutable ring_len : int; (* used prefix of [ring], tombstones included *)
  mutable ring_live : int; (* non-tombstone entries *)
  (* The ring's logical capacity: a push into a full ring compacts or
     doubles it.  [ring] itself only grows, so compaction moves entries down
     in place; the capacity follows the sizes a fresh array per compaction
     would have had, which keeps compactions, and so the hand, where they
     were. *)
  mutable ring_cap : int;
  mutable hand : int;
  mutable before_write : int64 -> unit;
  (* blocked pid -> prerequisite pids that must be durable before it may be
     written.  Entries are removed as they are satisfied. *)
  deps : int list ref Itbl.t;
  (* Reverse index: prereq pid -> blocked pids that named it, so a flush
     discharges the [deps] entries naming its page without walking the
     others.  A superset of the truth: [forget_dependencies] and a blocked
     page's own flush leave stale pids behind, and discharging a stale pid
     finds no [deps] entry, or one that no longer names the prereq. *)
  rdeps : int list ref Itbl.t;
  waiters : (unit -> unit) list ref Itbl.t;
  (* Visit marks of [reaches]: page [p] was visited by the current search
     when byte [p] holds [reach_epoch].  The bytes are cleared when the
     epoch wraps. *)
  mutable reach_seen : Bytes.t;
  mutable reach_epoch : int;
  mutable flushes : int;
  mutable hits : int;
  mutable misses : int;
  mutable dep_flushes : int; (* flushes forced by careful-writing prerequisites *)
  mutable evictions : int;
  mutable torn_detected : int;
  mutable read_repair : bool;
  mutable sweep_pid : int; (* elevator hand: next pid the flusher visits *)
  bus : Obs.Bus.t;
}

(* Page I/O (flushes, prerequisite flushes, torn pages) and page mutations
   are separate topics: the health tracker follows every mutation, the
   trace every write. *)
let topic = Obs.Bus.topic ()
let dirty_topic = Obs.Bus.topic ()

type Obs.Bus.event +=
  | Dirtied of int
  | Flushed of int
  | Dep_flushed of { blocked : int; prereq : int }
  | Torn_detected of int

(* Default bound: enough that the repo's own workloads rarely thrash, small
   enough that eviction is actually exercised — an unbounded pool hides every
   write-ordering bug the careful-writing machinery exists to catch. *)
let default_capacity = 256

let create ?(capacity = default_capacity) ?(bus = Obs.Bus.create ()) disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  {
    disk;
    capacity;
    frames = Array.make 64 absent;
    resident = 0;
    ring = Array.make 16 (-1);
    ring_len = 0;
    ring_live = 0;
    ring_cap = 16;
    hand = 0;
    before_write = (fun _ -> ());
    deps = Itbl.create 16;
    rdeps = Itbl.create 16;
    waiters = Itbl.create 16;
    reach_seen = Bytes.make 64 '\000';
    reach_epoch = 0;
    flushes = 0;
    hits = 0;
    misses = 0;
    dep_flushes = 0;
    evictions = 0;
    torn_detected = 0;
    read_repair = false;
    sweep_pid = 0;
    bus;
  }

let bus t = t.bus

let capacity t = t.capacity

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_flushes = t.flushes;
    s_dep_flushes = t.dep_flushes;
    s_evictions = t.evictions;
    s_torn_detected = t.torn_detected;
  }

let register_obs t reg =
  Obs.Registry.gauge reg "pager.hits" (fun () -> t.hits);
  Obs.Registry.gauge reg "pager.misses" (fun () -> t.misses);
  Obs.Registry.gauge reg "pager.flushes" (fun () -> t.flushes);
  Obs.Registry.gauge reg "pager.dep_flushes" (fun () -> t.dep_flushes);
  Obs.Registry.gauge reg "pager.evictions" (fun () -> t.evictions);
  Obs.Registry.gauge reg "pager.torn_detected" (fun () -> t.torn_detected);
  Obs.Registry.gauge reg "pager.frames" (fun () -> t.resident)

let disk t = t.disk
let page_size t = Disk.page_size t.disk
let set_read_repair t b = t.read_repair <- b
let torn_detected t = t.torn_detected

let set_before_write t f = t.before_write <- f

(* The resident frame of [pid], or [absent]. *)
let lookup t pid =
  if pid >= 0 && pid < Array.length t.frames then Array.unsafe_get t.frames pid else absent

let is_dirty t pid = (lookup t pid).dirty

let in_pool t pid = lookup t pid != absent

let is_durable t pid = not (is_dirty t pid)

let prereqs t pid =
  match Itbl.find_opt t.deps pid with Some l -> !l | None -> []

(* Marks [p] visited; true if it already was. *)
let visited t p =
  if p >= Bytes.length t.reach_seen then begin
    let bigger = Bytes.make (max (p + 1) (2 * Bytes.length t.reach_seen)) '\000' in
    Bytes.blit t.reach_seen 0 bigger 0 (Bytes.length t.reach_seen);
    t.reach_seen <- bigger
  end;
  let e = Char.unsafe_chr t.reach_epoch in
  Bytes.get t.reach_seen p = e || (Bytes.set t.reach_seen p e; false)

let rec reaches_from t dst p = p = dst || ((not (visited t p)) && reaches_any t dst (prereqs t p))

and reaches_any t dst = function
  | [] -> false
  | q :: rest -> reaches_from t dst q || reaches_any t dst rest

(* Would adding blocked -> prereq close a cycle?  I.e. can we already reach
   [blocked] from [prereq] through the dependency graph?  A depth-first
   search that allocates nothing. *)
let reaches t ~src ~dst =
  if t.reach_epoch = 255 then begin
    Bytes.fill t.reach_seen 0 (Bytes.length t.reach_seen) '\000';
    t.reach_epoch <- 1
  end
  else t.reach_epoch <- t.reach_epoch + 1;
  reaches_from t dst src

let add_dependency ?(force = false) t ~blocked ~prereq =
  if blocked = prereq then raise (Cycle (blocked, prereq));
  if force || not (is_durable t prereq) then begin
    if reaches t ~src:prereq ~dst:blocked then raise (Cycle (blocked, prereq));
    let l =
      match Itbl.find_opt t.deps blocked with
      | Some l -> l
      | None ->
        let l = ref [] in
        Itbl.replace t.deps blocked l;
        l
    in
    if not (List.exists (Int.equal prereq) !l) then begin
      l := prereq :: !l;
      match Itbl.find_opt t.rdeps prereq with
      | Some bs -> bs := blocked :: !bs
      | None -> Itbl.replace t.rdeps prereq (ref [ blocked ])
    end
  end

let forget_dependencies t pid = Itbl.remove t.deps pid

let fire_waiters t pid =
  match Itbl.find_opt t.waiters pid with
  | None -> ()
  | Some fs ->
    Itbl.remove t.waiters pid;
    List.iter (fun f -> f ()) (List.rev !fs)

let on_durable t pid f =
  if is_durable t pid then f ()
  else
    match Itbl.find_opt t.waiters pid with
    | Some fs -> fs := f :: !fs
    | None -> Itbl.replace t.waiters pid (ref [ f ])

(* A write-order constraint is discharged the moment its prerequisite
   reaches disk; leaving it around would manufacture false cycles when the
   (by then durable) pages are recycled by later units.  Only the pages the
   reverse index names can list [pid]. *)
let discharge_deps_on t pid =
  match Itbl.find_opt t.rdeps pid with
  | None -> ()
  | Some blocked ->
    Itbl.remove t.rdeps pid;
    List.iter
      (fun b ->
        match Itbl.find_opt t.deps b with
        | None -> ()
        | Some l ->
          l := List.filter (fun p -> p <> pid) !l;
          if !l = [] then Itbl.remove t.deps b)
      !blocked

let rec flush_frame t fr =
  if fr.dirty then begin
    (* Careful writing: prerequisites first. *)
    let ps = prereqs t fr.pid in
    Itbl.remove t.deps fr.pid;
    if ps <> [] then begin
      t.dep_flushes <- t.dep_flushes + List.length ps;
      if Obs.Bus.wants t.bus topic then
        List.iter
          (fun p -> Obs.Bus.emit t.bus topic (Dep_flushed { blocked = fr.pid; prereq = p }))
          ps
    end;
    List.iter (fun p -> flush_page t p) ps;
    (* WAL rule. *)
    t.before_write (Page.lsn fr.data);
    Page.set_checksum fr.data (Page.body_checksum fr.data);
    Disk.write t.disk fr.pid fr.data;
    t.flushes <- t.flushes + 1;
    if Obs.Bus.wants t.bus topic then Obs.Bus.emit t.bus topic (Flushed fr.pid);
    fr.dirty <- false;
    discharge_deps_on t fr.pid;
    fire_waiters t fr.pid
  end

and flush_page t pid =
  let fr = lookup t pid in
  if fr == absent then begin
    (* Not cached: the disk image is current by definition. *)
    Itbl.remove t.deps pid;
    fire_waiters t pid
  end
  else flush_frame t fr

(* --- clock ring maintenance --- *)

(* Squeeze the tombstones out, in place: entry [i] moves down to [j <= i],
   so every read is ahead of every write. *)
let ring_compact t =
  let j = ref 0 in
  let new_hand = ref 0 in
  for i = 0 to t.ring_len - 1 do
    if i = t.hand then new_hand := !j;
    let pid = t.ring.(i) in
    if pid >= 0 then begin
      (let fr = lookup t pid in
       if fr != absent then fr.slot <- !j);
      t.ring.(!j) <- pid;
      incr j
    end
  done;
  Array.fill t.ring !j (t.ring_len - !j) (-1);
  t.ring_len <- !j;
  t.ring_cap <- max 16 (2 * t.ring_live);
  t.hand <- (if !j = 0 then 0 else !new_hand mod !j)

let ring_push t fr =
  if t.ring_len = t.ring_cap then
    if t.ring_live * 2 <= t.ring_len then ring_compact t
    else begin
      t.ring_cap <- 2 * t.ring_cap;
      if t.ring_cap > Array.length t.ring then begin
        let bigger = Array.make t.ring_cap (-1) in
        Array.blit t.ring 0 bigger 0 t.ring_len;
        t.ring <- bigger
      end
    end;
  fr.slot <- t.ring_len;
  t.ring.(t.ring_len) <- fr.pid;
  t.ring_len <- t.ring_len + 1;
  t.ring_live <- t.ring_live + 1

let ring_remove t fr =
  if fr.slot >= 0 && fr.slot < t.ring_len && t.ring.(fr.slot) = fr.pid then begin
    t.ring.(fr.slot) <- -1;
    t.ring_live <- t.ring_live - 1
  end;
  fr.slot <- -1

let evict_one t =
  (* Clock / second-chance: sweep the ring from the hand; a referenced frame
     surrenders its bit and gets one more revolution, a pinned frame is
     skipped.  Two full revolutions are enough to find a victim (the first
     clears every bit), so a dry sweep means every frame is pinned. *)
  let victim = ref None in
  let budget = ref ((2 * t.ring_len) + 2) in
  while !victim = None && !budget > 0 do
    decr budget;
    if t.ring_len = 0 then budget := 0
    else begin
      if t.hand >= t.ring_len then t.hand <- 0;
      let pid = t.ring.(t.hand) in
      if pid < 0 then t.hand <- t.hand + 1
      else begin
        let fr = t.frames.(pid) in
        if fr.pins > 0 then t.hand <- t.hand + 1
        else if fr.referenced then begin
          fr.referenced <- false;
          t.hand <- t.hand + 1
        end
        else victim := Some fr
      end
    end
  done;
  match !victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some fr ->
    flush_frame t fr;
    t.evictions <- t.evictions + 1;
    ring_remove t fr;
    t.hand <- t.hand + 1;
    t.frames.(fr.pid) <- absent;
    t.resident <- t.resident - 1

(* A load always takes the fresh copy the disk returns; an evicted
   frame's bytes are never recycled, because callers may still hold the
   [Page.t] a fix returned earlier and must not see it change under them. *)
let load t pid =
  if t.resident >= t.capacity then evict_one t;
  let data = Disk.read t.disk pid in
  (* Checksum verification: a stored checksum of 0 means the image was never
     stamped by a pool flush (virgin page, or written around the pool) and is
     accepted.  A mismatch is a torn write: the prefix landed but the (LSN,
     body) pair is the {e previous} flushed image, still mutually consistent.
     During recovery (read-repair mode) that survivor is simply accepted —
     its own LSN tells redo which log suffix to replay, and nothing older
     (in particular no careful-writing move whose origin page has since been
     recycled) is touched.  Outside recovery a torn page is a hard error. *)
  let stored = Page.checksum data in
  let repaired =
    stored <> 0
    && stored <> Page.body_checksum data
    && begin
         t.torn_detected <- t.torn_detected + 1;
         if Obs.Bus.wants t.bus topic then Obs.Bus.emit t.bus topic (Torn_detected pid);
         if not t.read_repair then raise (Torn_page pid);
         Page.set_checksum data 0;
         true
       end
  in
  (* A repaired frame starts dirty: even if no log record ends up replayed
     against it, the final recovery flush must replace the torn on-disk
     image with a consistent one. *)
  let fr =
    {
      pid;
      data;
      dirty = repaired;
      rec_lsn = Page.lsn data;
      pins = 0;
      referenced = true;
      slot = -1;
    }
  in
  let len = Array.length t.frames in
  if pid >= len then begin
    let bigger = Array.make (max (pid + 1) (2 * len)) absent in
    Array.blit t.frames 0 bigger 0 len;
    t.frames <- bigger
  end;
  t.frames.(pid) <- fr;
  t.resident <- t.resident + 1;
  ring_push t fr;
  fr

let frame t pid =
  let fr = lookup t pid in
  if fr != absent then begin
    t.hits <- t.hits + 1;
    fr.referenced <- true;
    fr
  end
  else begin
    t.misses <- t.misses + 1;
    load t pid
  end

let get t pid = (frame t pid).data

(* A handle fixed before a lock wait may belong to a frame evicted during
   the wait; writes through it would land in a detached buffer. *)
let refix t pid data =
  let fr = lookup t pid in
  if fr != absent && fr.data == data then data else get t pid

let pin t pid =
  let fr = frame t pid in
  fr.pins <- fr.pins + 1;
  fr.data

let unpin t pid =
  let fr = lookup t pid in
  if fr.pins > 0 then fr.pins <- fr.pins - 1
  else invalid_arg "Buffer_pool.unpin: page not pinned"

let mark_dirty t pid =
  let fr = lookup t pid in
  if fr == absent then invalid_arg "Buffer_pool.mark_dirty: page not cached"
  else begin
    (* Capture the recovery LSN on the clean->dirty transition: callers stamp
       the page with the mutating record's LSN before marking, so this is the
       oldest record that might need replaying against the frame — the
       checkpoint's WAL-truncation floor for this page. *)
    if not fr.dirty then begin
      fr.dirty <- true;
      fr.rec_lsn <- Page.lsn fr.data
    end;
    if Obs.Bus.wants t.bus dirty_topic then Obs.Bus.emit t.bus dirty_topic (Dirtied pid)
  end

(* Resident pids satisfying [keep], ascending: the table is in page-id
   order already.  Taken as a list before anything is flushed, because a
   flush's durability callbacks may fix (and so load or evict) pages. *)
let resident_pids t keep =
  let acc = ref [] in
  for pid = Array.length t.frames - 1 downto 0 do
    let fr = Array.unsafe_get t.frames pid in
    if fr != absent && keep fr then acc := pid :: !acc
  done;
  !acc

let flush_all t = List.iter (fun pid -> flush_page t pid) (resident_pids t (fun _ -> true))

let dirty_pages t = resident_pids t (fun fr -> fr.dirty)

(* Background-flusher entry point: drain up to [limit] dirty frames in
   ascending-pid order starting at the persistent sweep hand, wrapping once —
   the elevator discipline that turns the flush stream sequential.  The log
   is forced once up to the batch's maximum page LSN first, so the per-frame
   WAL-rule forces inside [flush_frame] are already satisfied and the whole
   batch costs a single force. *)
let flush_elevator ?(limit = max_int) t =
  let dirty = dirty_pages t in
  if dirty = [] then 0
  else begin
    let above, below = List.partition (fun pid -> pid >= t.sweep_pid) dirty in
    let ordered = above @ below in
    let rec take k xs =
      match xs with [] -> [] | _ when k <= 0 -> [] | x :: rest -> x :: take (k - 1) rest
    in
    let batch = take limit ordered in
    let max_lsn =
      List.fold_left
        (fun m pid ->
          let fr = lookup t pid in
          if fr.dirty then Int64.max m (Page.lsn fr.data) else m)
        Int64.min_int batch
    in
    if max_lsn > Int64.min_int then t.before_write max_lsn;
    List.iter (fun pid -> flush_page t pid) batch;
    (match List.rev batch with last :: _ -> t.sweep_pid <- last + 1 | [] -> ());
    List.length batch
  end

(* Oldest recovery LSN over the dirty frames — together with the active-txn
   and reorg floors, this bounds how far the WAL may be truncated. *)
let min_rec_lsn t =
  Array.fold_left
    (fun acc fr ->
      if not fr.dirty then acc
      else match acc with None -> Some fr.rec_lsn | Some m -> Some (Int64.min m fr.rec_lsn))
    None t.frames

let crash t =
  Array.fill t.frames 0 (Array.length t.frames) absent;
  t.resident <- 0;
  Itbl.reset t.deps;
  Itbl.reset t.rdeps;
  Itbl.reset t.waiters;
  Array.fill t.ring 0 t.ring_len (-1);
  t.ring_len <- 0;
  t.ring_live <- 0;
  t.ring_cap <- 16;
  t.hand <- 0;
  t.sweep_pid <- 0

let frame_count t = t.resident
let flushes t = t.flushes
