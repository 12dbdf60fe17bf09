type page_info = { live : int; usable : int; next_pid : int option; low_key : int }
type side_event = Append | Take | Removed | Restored
type signal = Utilization | Fragmentation | Backlog

type fire = { f_name : string; f_value : float; f_at : int }

type watch_def = {
  w_name : string;
  w_signal : signal;
  w_region : (int * int) option;
  w_op : [ `Lt | `Gt ];
  w_threshold : float;
  w_fn : fire -> unit;
  mutable w_armed : bool;
}

type t = {
  pages : (int, page_info) Hashtbl.t;
  pending : (int, unit) Hashtbl.t;
  (* Byte [pid] is 1 exactly when [pid] is in [pending], so noting a page
     that is already pending costs one load. *)
  mutable marks : Bytes.t;
  mutable refresher : (int -> page_info option) option;
  mutable free_probe : (unit -> int) option;
  (* Aggregates, maintained by delta as pages enter/leave [pages]. *)
  mutable total_live : int;
  mutable total_usable : int;
  mutable chain_breaks : int;
  fill : int array;
  (* Event counters. *)
  mutable backlog : int;
  mutable backlog_peak : int;
  mutable side_appends : int;
  mutable side_takes : int;
  mutable allocs : int;
  mutable frees : int;
  mutable units : int;
  mutable switches : int;
  mutable fires : int;
  (* Watches, kept in registration order. *)
  mutable watches : watch_def list;
}

let buckets = 10

let bucket_index ~live ~usable =
  if usable <= 0 then 0
  else
    let f = float_of_int live /. float_of_int usable in
    min (buckets - 1) (max 0 (int_of_float (f *. float_of_int buckets)))

let create () =
  {
    pages = Hashtbl.create 256;
    pending = Hashtbl.create 64;
    marks = Bytes.make 64 '\000';
    refresher = None;
    free_probe = None;
    total_live = 0;
    total_usable = 0;
    chain_breaks = 0;
    fill = Array.make buckets 0;
    backlog = 0;
    backlog_peak = 0;
    side_appends = 0;
    side_takes = 0;
    allocs = 0;
    frees = 0;
    units = 0;
    switches = 0;
    fires = 0;
    watches = [];
  }

let set_refresher t f = t.refresher <- Some f
let set_free_probe t f = t.free_probe <- Some f
let note_dirty t pid =
  if pid >= Bytes.length t.marks then begin
    let bigger = Bytes.make (max (pid + 1) (2 * Bytes.length t.marks)) '\000' in
    Bytes.blit t.marks 0 bigger 0 (Bytes.length t.marks);
    t.marks <- bigger
  end;
  if Bytes.get t.marks pid = '\000' then begin
    Bytes.set t.marks pid '\001';
    Hashtbl.replace t.pending pid ()
  end

let invalidate_all t = Hashtbl.iter (fun pid _ -> note_dirty t pid) t.pages

let is_break pid info =
  match info.next_pid with Some n -> n <> pid + 1 | None -> false

let forget t pid =
  match Hashtbl.find_opt t.pages pid with
  | None -> ()
  | Some info ->
    Hashtbl.remove t.pages pid;
    t.total_live <- t.total_live - info.live;
    t.total_usable <- t.total_usable - info.usable;
    let b = bucket_index ~live:info.live ~usable:info.usable in
    t.fill.(b) <- t.fill.(b) - 1;
    if is_break pid info then t.chain_breaks <- t.chain_breaks - 1

let learn t pid info =
  forget t pid;
  Hashtbl.replace t.pages pid info;
  t.total_live <- t.total_live + info.live;
  t.total_usable <- t.total_usable + info.usable;
  let b = bucket_index ~live:info.live ~usable:info.usable in
  t.fill.(b) <- t.fill.(b) + 1;
  if is_break pid info then t.chain_breaks <- t.chain_breaks + 1

let refresh t =
  if Hashtbl.length t.pending > 0 then begin
    match t.refresher with
    | None -> ()
    | Some look ->
      let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) t.pending [] in
      Hashtbl.reset t.pending;
      List.iter (fun pid -> Bytes.set t.marks pid '\000') pids;
      List.iter
        (fun pid ->
          match look pid with Some info -> learn t pid info | None -> forget t pid)
        pids
  end

let pending_count t = Hashtbl.length t.pending

let side_event t ~size ev =
  t.backlog <- size;
  if size > t.backlog_peak then t.backlog_peak <- size;
  match ev with
  | Append -> t.side_appends <- t.side_appends + 1
  | Take -> t.side_takes <- t.side_takes + 1
  | Removed | Restored -> ()

let note_alloc_event t ev pid =
  (match ev with
  | `Alloc -> t.allocs <- t.allocs + 1
  | `Free -> t.frees <- t.frees + 1);
  note_dirty t pid

let note_unit t = t.units <- t.units + 1
let note_switch t = t.switches <- t.switches + 1

type stats = {
  leaves : int;
  live_bytes : int;
  usable_bytes : int;
  utilization : float;
  chain_breaks : int;
  fragmentation : float;
  fill_buckets : int array;
  backlog : int;
  backlog_peak : int;
  free_pages : int;
  units : int;
  switches : int;
  allocs : int;
  frees : int;
  side_appends : int;
  side_takes : int;
  watch_fires : int;
}

let utilization_of ~live ~usable =
  if usable <= 0 then 0.0 else float_of_int live /. float_of_int usable

let fragmentation_of ~breaks ~leaves =
  if leaves <= 1 then 0.0 else float_of_int breaks /. float_of_int (leaves - 1)

let free_pages t = match t.free_probe with Some f -> f () | None -> 0

let stats t =
  refresh t;
  let leaves = Hashtbl.length t.pages in
  {
    leaves;
    live_bytes = t.total_live;
    usable_bytes = t.total_usable;
    utilization = utilization_of ~live:t.total_live ~usable:t.total_usable;
    chain_breaks = t.chain_breaks;
    fragmentation = fragmentation_of ~breaks:t.chain_breaks ~leaves;
    fill_buckets = Array.copy t.fill;
    backlog = t.backlog;
    backlog_peak = t.backlog_peak;
    free_pages = free_pages t;
    units = t.units;
    switches = t.switches;
    allocs = t.allocs;
    frees = t.frees;
    side_appends = t.side_appends;
    side_takes = t.side_takes;
    watch_fires = t.fires;
  }

let utilization t =
  refresh t;
  utilization_of ~live:t.total_live ~usable:t.total_usable

let fragmentation t =
  refresh t;
  fragmentation_of ~breaks:t.chain_breaks ~leaves:(Hashtbl.length t.pages)

let region_utilization t ~lo ~hi =
  refresh t;
  let live = ref 0 and usable = ref 0 and n = ref 0 in
  Hashtbl.iter
    (fun _pid info ->
      if info.low_key >= lo && info.low_key <= hi then begin
        live := !live + info.live;
        usable := !usable + info.usable;
        incr n
      end)
    t.pages;
  if !n = 0 then 1.0 else utilization_of ~live:!live ~usable:!usable

let watch t ?region ~name ~signal ~op ~threshold fn =
  let w =
    {
      w_name = name;
      w_signal = signal;
      w_region = region;
      w_op = op;
      w_threshold = threshold;
      w_fn = fn;
      w_armed = true;
    }
  in
  t.watches <- List.filter (fun o -> o.w_name <> name) t.watches @ [ w ]

let unwatch t name = t.watches <- List.filter (fun o -> o.w_name <> name) t.watches

let watch_value t w =
  match w.w_signal with
  | Utilization -> (
    match w.w_region with
    | Some (lo, hi) -> region_utilization t ~lo ~hi
    | None -> utilization_of ~live:t.total_live ~usable:t.total_usable)
  | Fragmentation ->
    fragmentation_of ~breaks:t.chain_breaks ~leaves:(Hashtbl.length t.pages)
  | Backlog -> float_of_int t.backlog

let check_watches t ~now =
  refresh t;
  if Hashtbl.length t.pages = 0 then []
  else
    List.filter_map
      (fun w ->
        let v = watch_value t w in
        let hit =
          match w.w_op with `Lt -> v < w.w_threshold | `Gt -> v > w.w_threshold
        in
        if hit && w.w_armed then begin
          w.w_armed <- false;
          t.fires <- t.fires + 1;
          let f = { f_name = w.w_name; f_value = v; f_at = now } in
          w.w_fn f;
          Some f
        end
        else begin
          if not hit then w.w_armed <- true;
          None
        end)
      t.watches

let watch_fires t = t.fires

let per_mille x = int_of_float (Float.round (x *. 1000.0))

let register_obs t reg =
  let g name fn = Registry.gauge reg name fn in
  g "health.leaves" (fun () ->
      refresh t;
      Hashtbl.length t.pages);
  g "health.live_bytes" (fun () ->
      refresh t;
      t.total_live);
  g "health.usable_bytes" (fun () ->
      refresh t;
      t.total_usable);
  g "health.utilization_pm" (fun () -> per_mille (utilization t));
  g "health.chain_breaks" (fun () ->
      refresh t;
      t.chain_breaks);
  g "health.fragmentation_pm" (fun () -> per_mille (fragmentation t));
  for b = 0 to buckets - 1 do
    g (Printf.sprintf "health.fill.%d" b) (fun () ->
        refresh t;
        t.fill.(b))
  done;
  g "health.backlog" (fun () -> t.backlog);
  g "health.backlog_peak" (fun () -> t.backlog_peak);
  g "health.free_pages" (fun () -> free_pages t);
  g "health.units" (fun () -> t.units);
  g "health.switches" (fun () -> t.switches);
  g "health.allocs" (fun () -> t.allocs);
  g "health.frees" (fun () -> t.frees);
  g "health.side_appends" (fun () -> t.side_appends);
  g "health.side_takes" (fun () -> t.side_takes);
  g "health.watch_fires" (fun () -> t.fires)

module Sampler = struct
  type health = t

  type snapshot = {
    at : int;
    leaves : int;
    utilization : float;
    fragmentation : float;
    backlog : int;
    free_pages : int;
    fill_buckets : int array;
    probes : (string * int * int) list;
    fired : string list;
  }

  type nonrec t = {
    health : health;
    tracer : Trace.t option;
    tid : int;
    mutable clock : unit -> int;
    mutable probes : (string * (unit -> int)) list;  (* registration order *)
    mutable prev : (string * int) list;
    mutable snaps : snapshot list;  (* newest first *)
  }

  let create ?tracer ?(tid = 0) ?(clock = fun () -> 0) health =
    { health; tracer; tid; clock; probes = []; prev = []; snaps = [] }

  let set_clock s clock = s.clock <- clock
  let add_probe s name fn = s.probes <- s.probes @ [ (name, fn) ]

  let trace_emit s (snap : snapshot) =
    match s.tracer with
    | None -> ()
    | Some tr ->
      Trace.counter tr ~tid:s.tid ~cat:"health" "tree-health"
        [
          ("utilization", Trace.Float snap.utilization);
          ("fragmentation", Trace.Float snap.fragmentation);
          ("backlog", Trace.Int snap.backlog);
          ("free_pages", Trace.Int snap.free_pages);
          ("leaves", Trace.Int snap.leaves);
        ];
      if snap.probes <> [] then
        Trace.counter tr ~tid:s.tid ~cat:"health" "health-probes"
          (List.map (fun (name, v, _d) -> (name, Trace.Int v)) snap.probes);
      List.iter
        (fun name ->
          Trace.instant tr ~tid:s.tid ~cat:"health" "health.watch-fire"
            ~args:[ ("watch", Trace.Str name) ])
        snap.fired

  let sample s =
    let at = s.clock () in
    let st = stats s.health in
    let fired = check_watches s.health ~now:at in
    let probes =
      List.map
        (fun (name, fn) ->
          let v = fn () in
          let prev = match List.assoc_opt name s.prev with Some p -> p | None -> 0 in
          (name, v, v - prev))
        s.probes
    in
    s.prev <- List.map (fun (name, v, _) -> (name, v)) probes;
    let snap =
      {
        at;
        leaves = st.leaves;
        utilization = st.utilization;
        fragmentation = st.fragmentation;
        backlog = st.backlog;
        free_pages = st.free_pages;
        fill_buckets = st.fill_buckets;
        probes;
        fired = List.map (fun f -> f.f_name) fired;
      }
    in
    s.snaps <- snap :: s.snaps;
    trace_emit s snap;
    snap

  let snapshots s = List.rev s.snaps
  let count s = List.length s.snaps
end
