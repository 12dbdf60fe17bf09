(* The benchmark's workloads, and the rounds that run them.

   A round sets up a fresh tree, runs the workload's job on one cooperative
   scheduler (the reorganizer and/or closed-loop user fibers, all in one OS
   thread), then runs a cold-cache probe of range scans and checks the tree
   against a record model.  A run repeats rounds until its time is up and
   combines each metric's per-round values into one figure. *)

module Engine = Sched.Engine
module Access = Btree.Access
module Tree = Btree.Tree
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db
module Disk = Pager.Disk
module Pool = Pager.Buffer_pool
module Lock_mgr = Lockmgr.Lock_mgr
module Metrics = Reorg.Metrics
module Keys = Map.Make (Int)

type kind = Read | Scan | Insert | Delete

let kinds = [ Read; Scan; Insert; Delete ]
let kind_name = function Read -> "read" | Scan -> "scan" | Insert -> "insert" | Delete -> "delete"
let kind_index = function Read -> 0 | Scan -> 1 | Insert -> 2 | Delete -> 3

(* Fractions of each operation kind; they sum to 1. *)
type mix = { read : float; scan : float; insert : float; delete : float }

let share m = function Read -> m.read | Scan -> m.scan | Insert -> m.insert | Delete -> m.delete

type tree =
  | Aged of { records : int; f1 : float }
      (** [Sim.Scenario.aged]: sparse, scattered leaves, the default pool *)
  | Loaded of { records : int; fill : float; frames : int }
      (** [Sim.Db.load]: packed, contiguous leaves, a pool of [frames] *)

type t = {
  name : string;
  tree : tree;
  reorg : bool;  (** run the reorganizer; the job ends when it reports *)
  mix : mix option;
      (** concurrent users; without them the probe's scans are the workload's
          user operations *)
  batch : int;  (** operations per round when there is no reorganizer *)
}

(* Closed loop: each user issues its next operation one scheduler tick after
   the previous one completes. *)
let users = 4
let scan_keys = 64
let probe_scans = 1000
let probe_keys = 400
let max_tries = 100
let aged = Aged { records = 10_000; f1 = 0.3 }

let all =
  [
    { name = "reorg-alone"; tree = aged; reorg = true; mix = None; batch = 0 };
    {
      name = "reads-during-reorg";
      tree = aged;
      reorg = true;
      mix = Some { read = 0.6; scan = 0.4; insert = 0.0; delete = 0.0 };
      batch = 0;
    };
    {
      name = "writes-during-reorg";
      tree = aged;
      reorg = true;
      mix = Some { read = 0.4; scan = 0.0; insert = 0.3; delete = 0.3 };
      batch = 0;
    };
    {
      name = "steady-no-reorg";
      tree = Loaded { records = 60_000; fill = 0.9; frames = 8192 };
      reorg = false;
      mix = Some { read = 0.8; scan = 0.1; insert = 0.05; delete = 0.05 };
      batch = 100_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The configuration a result line is only comparable under. *)
let config w =
  let num x = Json.Num (float x) in
  let tree =
    match w.tree with
    | Aged { records; f1 } ->
      [ ("tree", Json.Str "aged"); ("records", num records); ("f1", Json.Num f1);
        ("frames", num Pool.default_capacity) ]
    | Loaded { records; fill; frames } ->
      [ ("tree", Json.Str "loaded"); ("records", num records); ("fill", Json.Num fill);
        ("frames", num frames) ]
  in
  let load =
    match w.mix with
    | None -> [ ("users", num 0) ]
    | Some m ->
      [ ("users", num users);
        ("mix", Json.Obj (List.map (fun k -> (kind_name k, Json.Num (share m k))) kinds));
        ("scan_keys", num scan_keys) ]
  in
  Json.Obj
    (tree @ load
    @ [ ("reorganizer", Json.Bool w.reorg); ("batch", num w.batch); ("page_size", num 512);
        ("commit", Json.Str "synchronous force");
        ("olc", Json.Bool Reorg.Config.default.Reorg.Config.olc);
        ("probe_scans", num probe_scans); ("probe_keys", num probe_keys) ])

let now () = Monotonic_clock.now ()
let us_between a b = Int64.to_float (Int64.sub b a) /. 1e3
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One round's samples of one population of user operations.  The layer
   buffers fill only in traced rounds. *)
type sink = {
  lat : Obs.Histogram.t array;  (** begin to commit/finish return, µs, by kind *)
  ticks : Obs.Histogram.t;  (** the same in scheduler ticks *)
  access_us : Obs.Histogram.t;  (** inside the [Access] call *)
  finish_us : Obs.Histogram.t;  (** inside [Txn_mgr.commit] / [finish_read_only] *)
  mutable ops : int;
  mutable failed : int;
  mutable give_ups : int;
  mutable blocked_ticks : int;
}

let new_sink () =
  {
    lat = Array.of_list (List.map (fun k -> Obs.Histogram.make (kind_name k)) kinds);
    ticks = Obs.Histogram.make "op_ticks";
    access_us = Obs.Histogram.make "access_us";
    finish_us = Obs.Histogram.make "finish_us";
    ops = 0;
    failed = 0;
    give_ups = 0;
    blocked_ticks = 0;
  }

(* Spans in host µs since [origin], plus the reorganizer steps' host time. *)
type tracer = {
  trace : Obs.Trace.t;
  origin : int64;
  steps : (string, float) Hashtbl.t;
  mutable pass2_misses : int;
}

type env = {
  db : Db.t;
  nkeys : int;  (** loaded records: keys 0, 2, ..., 2 (nkeys - 1) *)
  mutable model : string Keys.t;  (** base records, minus acked deletes, plus acked inserts *)
  reserved : (int, unit) Hashtbl.t;  (** odd keys already handed to an insert *)
  tracer : tracer option;
  mutable errors : string list;
  mutable checking : float;  (** host seconds spent checking results *)
}

(* Host seconds, less the benchmark's own checking: what the phases of a
   round are timed with. *)
let clock env = (Int64.to_float (now ()) /. 1e9) -. env.checking

let span tr ~tid ~cat name t0 t1 =
  Obs.Trace.complete tr.trace ~tid ~cat
    ~ts:(int_of_float (us_between tr.origin t0))
    ~dur:(int_of_float (us_between t0 t1))
    name

(* Run [f] as one call into a layer: timed into [buf] and spanned when
   tracing. *)
let layer env ~tid buf name f =
  match env.tracer with
  | None -> f ()
  | Some tr ->
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    Obs.Histogram.observe buf (us_between t0 t1);
    span tr ~tid ~cat:"layer" name t0 t1;
    r

let access_name = function
  | Read -> "Access.read"
  | Scan -> "Access.range_read"
  | Insert -> "Access.insert"
  | Delete -> "Access.delete"

(* One user operation as its own transaction, retried as a new transaction
   while it is chosen as a deadlock victim.  Returns the records it
   observed, or [None] after [max_tries] victimisations. *)
let rec attempt env sink ~tid kind ~key ~hi tries =
  let { Db.mgr; access; _ } = env.db in
  let writes = kind = Insert || kind = Delete in
  let tx = if writes then Txn_mgr.begin_txn mgr else Txn_mgr.fresh_owner mgr in
  let note () =
    sink.give_ups <- sink.give_ups + tx.Transact.Txn.gave_up;
    sink.blocked_ticks <- sink.blocked_ticks + tx.Transact.Txn.blocked_ticks
  in
  let call () =
    let found = function Some p -> [ (key, p) ] | None -> [] in
    match kind with
    | Read -> found (Access.read access ~txn:tx key)
    | Scan ->
      List.map
        (fun r -> (r.Btree.Leaf.key, r.Btree.Leaf.payload))
        (Access.range_read access ~txn:tx ~lo:key ~hi)
    | Insert ->
      Access.insert access ~txn:tx ~key ~payload:(Db.payload_for key);
      []
    | Delete -> found (Access.delete access ~txn:tx key)
  in
  match layer env ~tid sink.access_us (access_name kind) call with
  | seen ->
    if writes then layer env ~tid sink.finish_us "Txn_mgr.commit" (fun () -> Txn_mgr.commit mgr tx)
    else
      layer env ~tid sink.finish_us "Txn_mgr.finish_read_only" (fun () ->
          Txn_mgr.finish_read_only mgr tx);
    note ();
    Some seen
  | exception Transact.Lock_client.Deadlock_victim ->
    if writes then Txn_mgr.abort mgr tx else Txn_mgr.finish_read_only mgr tx;
    note ();
    if tries + 1 >= max_tries then None else attempt env sink ~tid kind ~key ~hi (tries + 1)

(* Compare what an operation observed with the model, then apply it.  A
   point operation holds its leaf lock until it commits, and nothing yields
   between the commit and this check, so the model is exact for it.  A scan
   releases each leaf as it steps to the next, so it may or may not see a
   change committed while it ran: it must see every record present in the
   model both when it began ([start]) and now, and nothing present in
   neither.  A key changes at most once (only loaded keys are deleted, only
   fresh keys inserted), so that pins everything else. *)
let check env kind ~start ~key ~hi seen =
  let in_range m = List.of_seq (Seq.take_while (fun (k, _) -> k <= hi) (Keys.to_seq_from key m)) in
  let ok =
    match kind with
    | Read | Delete ->
      seen = (match Keys.find_opt key env.model with Some p -> [ (key, p) ] | None -> [])
    | Insert -> seen = []
    | Scan ->
      (* Record lists here are strictly ascending by key, and a key keeps its
         payload, so each test is one merge that compares whole records;
         being a subset of such a list also makes [seen] ascending. *)
      let rec subset a b =
        match (a, b) with
        | [], _ -> true
        | _, [] -> false
        | x :: a', y :: b' -> if x = y then subset a' b' else x > y && subset a b'
      in
      let rec union a b =
        match (a, b) with
        | [], r | r, [] -> r
        | x :: a', y :: b' ->
          if x = y then x :: union a' b' else if x < y then x :: union a' b else y :: union a b'
      in
      let rec inter a b =
        match (a, b) with
        | [], _ | _, [] -> []
        | x :: a', y :: b' ->
          if x = y then x :: inter a' b' else if x < y then inter a' b else inter a b'
      in
      let before = in_range start and now = in_range env.model in
      subset seen (union before now) && subset (inter before now) seen
  in
  if not ok then
    env.errors <-
      Printf.sprintf "%s %d: saw %d records, the model has %d" (kind_name kind) key
        (List.length seen) (List.length (in_range env.model))
      :: env.errors;
  match kind with
  | Delete -> env.model <- Keys.remove key env.model
  | Insert -> env.model <- Keys.add key (Db.payload_for key) env.model
  | Read | Scan -> ()

(* Reads, scans and deletes pick loaded (even) keys uniformly; inserts pick
   odd keys that no insert has used yet. *)
let pick_key env rng = function
  | Insert ->
    let rec fresh () =
      let k = (2 * Util.Rng.int rng env.nkeys) + 1 in
      if Hashtbl.mem env.reserved k then fresh ()
      else begin
        Hashtbl.add env.reserved k ();
        k
      end
    in
    fresh ()
  | Read | Scan | Delete -> 2 * Util.Rng.int rng env.nkeys

let user_op env sink ~tid kind ~key ~width =
  let hi = key + (2 * width) - 1 in
  let start = env.model in
  let t0 = now () and tick = Engine.current_time () in
  let seen = attempt env sink ~tid kind ~key ~hi 0 in
  let t1 = now () in
  sink.ops <- sink.ops + 1;
  match seen with
  | None -> sink.failed <- sink.failed + 1
  | Some seen ->
    Obs.Histogram.observe sink.lat.(kind_index kind) (us_between t0 t1);
    Obs.Histogram.observe_int sink.ticks (Engine.current_time () - tick);
    Option.iter (fun tr -> span tr ~tid ~cat:"user" (kind_name kind) t0 t1) env.tracer;
    check env kind ~start ~key ~hi seen;
    env.checking <- env.checking +. seconds_between t1 (now ())

let pick_kind m rng =
  let x = Util.Rng.float rng 1.0 in
  if x < m.read then Read
  else if x < m.read +. m.scan then Scan
  else if x < m.read +. m.scan +. m.insert then Insert
  else Delete

(* [count] closed-loop fibers on trace rows [first_tid ...]; [next rng]
   chooses each operation's kind and scan width. *)
let spawn_users env eng sink ~prefix ~first_tid ~seed ~count ~ops ~stop next =
  Option.iter
    (fun tr ->
      for u = 0 to count - 1 do
        Obs.Trace.name_thread tr.trace ~tid:(first_tid + u) (Printf.sprintf "%s-%d" prefix u)
      done)
    env.tracer;
  Workload.Mix.spawn_loop eng ~name_prefix:prefix ~seed ~users:count ~ops_per_user:ops ~stop
    (fun ~user ~rng ->
      let kind, width = next rng in
      user_op env sink ~tid:(first_tid + user) kind ~key:(pick_key env rng kind) ~width)

(* [Reorg.Driver.run]; in a traced round, its steps called one by one in
   the same order so each gets a span.  The caller checks that both ways
   leave the same final state. *)
let reorganize env ctx =
  match env.tracer with
  | None -> ignore (Reorg.Driver.run ctx : Reorg.Driver.report)
  | Some tr ->
    let step name f =
      let t0 = now () in
      f ();
      let t1 = now () in
      let so_far = Option.value ~default:0.0 (Hashtbl.find_opt tr.steps name) in
      Hashtbl.replace tr.steps name (so_far +. seconds_between t0 t1);
      span tr ~tid:0 ~cat:"reorg" name t0 t1
    in
    let config = ctx.Reorg.Ctx.config and tree = Reorg.Ctx.tree ctx in
    let misses () = (Pool.stats env.db.Db.pool).Pool.s_misses in
    Obs.Trace.name_thread tr.trace ~tid:0 "reorganizer";
    ignore (Tree.stats tree : Tree.stats);
    step "Pass1.run" (fun () -> ignore (Reorg.Pass1.run ctx : int));
    step "Ctx.checkpoint" (fun () -> Reorg.Ctx.checkpoint ctx);
    ignore (Reorg.Pass2.out_of_order ctx : int);
    let before = misses () in
    step "Pass2.run" (fun () ->
        if config.Reorg.Config.swap_pass then ignore (Reorg.Pass2.run ctx : int * int));
    tr.pass2_misses <- misses () - before;
    step "Ctx.checkpoint" (fun () -> Reorg.Ctx.checkpoint ctx);
    step "Pass3.run" (fun () ->
        if config.Reorg.Config.shrink_pass then ignore (Reorg.Pass3.run ctx () : bool));
    step "Ctx.checkpoint" (fun () -> Reorg.Ctx.checkpoint ctx);
    ignore (Tree.stats tree : Tree.stats)

type snap = { lock : Lock_mgr.stats; pool : Pool.stats; disk : Disk.stats; wal : Wal.Log.stats }

let snap db =
  {
    lock = Lock_mgr.stats db.Db.locks;
    pool = Pool.stats db.Db.pool;
    disk = Disk.stats db.Db.disk;
    wal = Wal.Log.stats db.Db.log;
  }

let disk_delta (a : Disk.stats) (b : Disk.stats) =
  {
    Disk.reads = b.reads - a.reads;
    writes = b.writes - a.writes;
    seq_reads = b.seq_reads - a.seq_reads;
    rand_reads = b.rand_reads - a.rand_reads;
    seq_writes = b.seq_writes - a.seq_writes;
    rand_writes = b.rand_writes - a.rand_writes;
  }

let build w ~seed =
  match w.tree with
  | Aged { records; f1 } -> Sim.Scenario.aged ~seed ~n:records ~f1 ()
  | Loaded { records; fill; frames } ->
    let recs = List.init records (fun i -> (2 * i, Db.payload_for (2 * i))) in
    (* A leaf zone as large as the pool leaves room for the inserts. *)
    (Db.load ~capacity:frames ~leaf_pages:frames ~fill recs, recs)

(* How a run combines a metric's per-round values into its figure.  Values
   the host cannot move take the median of the first [exact_rounds] rounds,
   which every run makes, so a seed always gives the same figure.  The
   set-up time takes the median of all rounds.  Other tenants of a shared
   machine only ever add host time, in bursts that can slow several rounds
   in a row, so the other host times take the decile on the fast side
   (about the second-fastest of 20 rounds), which ignores the disturbed
   rounds; a single lucky round does not set it. *)
type combine = Exact | Median | Low_decile | High_decile

let exact_rounds = 10

type metric = {
  name : string;
  unit : string;
  combine : combine;
  value : float option;  (** [None]: a percentile the samples do not support *)
  samples : int list;  (** for a percentile, each round's sample count *)
}

let count name unit v = { name; unit; combine = Exact; value = Some v; samples = [] }
let host name unit v = { name; unit; combine = Low_decile; value = Some v; samples = [] }

let percentile name unit combine p h =
  let xs = Obs.Histogram.samples h in
  { name; unit; combine; value = Stat.percentile xs p; samples = [ Array.length xs ] }

type round = {
  e2e : metric list;
  layers : metric list;
  final : Tree.stats * int * Disk.stats;  (** tree, WAL bytes and disk counters after the job *)
  makespan : float;
  sink : sink;  (** the workload's user operations *)
  attempted : int;
  failed : int;
  errors : string list;
}

let round w ~seed ~tracer =
  let t0 = now () in
  let db, records = build w ~seed in
  let setup_s = seconds_between t0 (now ()) in
  let env =
    {
      db;
      nkeys = List.length records;
      model = Keys.of_seq (List.to_seq records);
      reserved = Hashtbl.create 1024;
      tracer;
      errors = [];
      checking = 0.0;
    }
  in
  let users_sink = new_sink () and probe_sink = new_sink () in
  let eng = Engine.create () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let reported = ref None in
  if w.reorg then
    Engine.spawn eng ~name:"reorganizer" (fun () ->
        reorganize env ctx;
        reported := Some (clock env));
  Option.iter
    (fun m ->
      spawn_users env eng users_sink ~prefix:"user" ~first_tid:1 ~seed ~count:users
        ~ops:(if w.reorg then max_int else w.batch / users)
        ~stop:(fun () -> !reported <> None)
        (fun rng -> (pick_kind m rng, scan_keys)))
    w.mix;
  let before = snap db in
  let start = clock env in
  Engine.run eng;
  let stop = clock env in
  let makespan = Option.value ~default:stop !reported -. start in
  let job = snap db in
  let job_disk = disk_delta before.disk job.disk in
  let wal_bytes = job.wal.Wal.Log.bytes - before.wal.Wal.Log.bytes in
  let final = (Tree.stats db.Db.tree, wal_bytes, job_disk) in
  let db_mb = float (Obj.reachable_words (Obj.repr db) * (Sys.word_size / 8)) /. 1e6 in
  (* The cold-cache probe: every page back on disk, an empty pool. *)
  Db.flush_all db;
  Pool.crash db.Db.pool;
  let flushed = snap db in
  let probe = Engine.create () in
  spawn_users env probe probe_sink ~prefix:"probe" ~first_tid:(1 + users) ~seed:(seed + 1)
    ~count:1 ~ops:probe_scans
    ~stop:(fun () -> false)
    (fun _ -> (Scan, probe_keys));
  let p0 = clock env in
  Engine.run probe;
  let p1 = clock env in
  let probed = snap db in
  let fill = (Tree.stats db.Db.tree).Tree.avg_leaf_fill in
  (try
     Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
     Btree.Invariant.check_consistent_with db.Db.tree ~expected:(Keys.bindings env.model)
   with Btree.Invariant.Violation msg -> env.errors <- ("invariant: " ^ msg) :: env.errors);
  (* The users' counters come from the phase the users ran in. *)
  let sink, users_from, users_to, users_s =
    if w.mix = None then (probe_sink, flushed, probed, p1 -. p0)
    else (users_sink, before, job, stop -. start)
  in
  let lat = Obs.Histogram.make "op" in
  Array.iter (fun h -> Array.iter (Obs.Histogram.observe lat) (Obs.Histogram.samples h)) sink.lat;
  let n = float (Obs.Histogram.count lat) in
  let per_op get = ratio (float (get users_to - get users_from)) n in
  let d get = float (get job - get before) in
  let m = ctx.Reorg.Ctx.metrics in
  let step name =
    match tracer with
    | Some tr -> Option.value ~default:0.0 (Hashtbl.find_opt tr.steps name)
    | None -> 0.0
  in
  let units = float (Metrics.units m) in
  let olc = Tree.olc db.Db.tree in
  let e2e =
    [
      { (host "setup_s" "s" setup_s) with combine = Median };
      host "makespan_s" "s" makespan;
      { (host "ops_per_s" "1/s" (ratio n users_s)) with combine = High_decile };
      percentile "op_p95_us" "us" Low_decile 95.0 lat;
      count "fill_after" "ratio" fill;
      count "scan_io_cost" "cost" (Disk.io_cost (disk_delta flushed.disk probed.disk) /. float probe_scans);
      count "wal_bytes_per_record" "B" (float wal_bytes /. float env.nkeys);
      count "db_mem_mb" "MB" db_mb;
    ]
  in
  let layers =
    if tracer = None then []
    else [
      count "sched.dispatches" "count" (float (Engine.dispatches eng));
      count "sched.ticks" "ticks" (float (Engine.now eng));
      percentile "sched.op_ticks_p50" "ticks" Exact 50.0 sink.ticks;
      percentile "sched.op_ticks_p95" "ticks" Exact 95.0 sink.ticks;
      percentile "op_p50_us" "us" Low_decile 50.0 lat;
      percentile "access.op_us_p50" "us" Low_decile 50.0 sink.access_us;
      percentile "access.op_us_p95" "us" Low_decile 95.0 sink.access_us;
      count "access.give_ups_per_op" "count" (ratio (float sink.give_ups) n);
      count "olc.reads" "count" (float (Btree.Olc.reads olc));
      count "olc.fallbacks" "count" (float (Btree.Olc.fallbacks olc));
      count "lock.acquires_per_op" "count" (per_op (fun s -> s.lock.Lock_mgr.acquires));
      count "lock.scan_steps_per_op" "count" (per_op (fun s -> s.lock.Lock_mgr.scan_steps));
      count "lock.waits" "count" (d (fun s -> s.lock.Lock_mgr.waits));
      count "lock.blocked_ticks_per_op" "ticks" (ratio (float sink.blocked_ticks) n);
      count "lock.deadlocks" "count" (d (fun s -> s.lock.Lock_mgr.deadlocks));
      percentile "txn.finish_us_p50" "us" Low_decile 50.0 sink.finish_us;
      percentile "txn.finish_us_p95" "us" Low_decile 95.0 sink.finish_us;
      count "wal.bytes" "B" (float wal_bytes);
      count "wal.records" "count" (d (fun s -> s.wal.Wal.Log.records));
      count "wal.forced" "count" (d (fun s -> s.wal.Wal.Log.forced));
      count "pager.hit_rate" "ratio"
        (ratio (d (fun s -> s.pool.Pool.s_hits)) (d (fun s -> s.pool.Pool.s_hits + s.pool.Pool.s_misses)));
      count "pager.misses" "count" (d (fun s -> s.pool.Pool.s_misses));
      count "pager.evictions" "count" (d (fun s -> s.pool.Pool.s_evictions));
      count "pager.flushes" "count" (d (fun s -> s.pool.Pool.s_flushes));
      count "pager.dep_flushes" "count" (d (fun s -> s.pool.Pool.s_dep_flushes));
      count "disk.reads" "count" (float job_disk.Disk.reads);
      count "disk.writes" "count" (float job_disk.Disk.writes);
      count "disk.seq_write_frac" "ratio" (ratio (float job_disk.Disk.seq_writes) (float job_disk.Disk.writes));
      count "disk.io_cost" "cost" (Disk.io_cost job_disk);
      count "disk.reads_per_lookup" "count" (per_op (fun s -> s.disk.Disk.reads));
      host "reorg.pass1_s" "s" (step "Pass1.run");
      host "reorg.pass2_s" "s" (step "Pass2.run");
      host "reorg.pass3_s" "s" (step "Pass3.run");
      host "reorg.checkpoint_s" "s" (step "Ctx.checkpoint");
      count "reorg.pass2_misses_per_unit" "count"
        (ratio
           (match tracer with Some tr -> float tr.pass2_misses | None -> 0.0)
           (float (Metrics.swap_units m + Metrics.move_units m)));
      count "reorg.units" "count" units;
      count "reorg.swaps" "count" (float (Metrics.swap_units m));
      count "reorg.moves" "count" (float (Metrics.move_units m));
      count "reorg.records_moved" "count" (float (Metrics.records_moved m));
      count "reorg.useful_unit_frac" "ratio"
        (ratio units (units +. float (Metrics.unit_retries m + Metrics.units_undone m)));
      count "reorg.side_entries" "count" (float (Metrics.side_entries m));
      count "reorg.forced_aborts" "count" (float (Metrics.forced_aborts m));
      count "reorg.log_bytes" "B" (float (Metrics.log_bytes m));
    ]
  in
  Option.iter (fun tr -> Hashtbl.reset tr.steps) tracer;
  {
    e2e;
    layers;
    final;
    makespan;
    sink;
    attempted = users_sink.ops + probe_sink.ops;
    failed = users_sink.failed + probe_sink.failed;
    errors = List.rev env.errors;
  }

(* ------------------------------------------------------------------ *)
(* A run: rounds until the time is up, then one figure per metric      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
  rounds : int;
  latency : Json.t;  (** per-kind percentiles over all rounds, with their sample counts *)
  trace : Obs.Trace.t option;
}

let combine how xs =
  let xs = Array.of_list xs in
  match how with
  | Exact | Median -> Stat.median xs
  | Low_decile -> Util.Stats.percentile xs 10.0
  | High_decile -> Util.Stats.percentile xs 90.0

(* Traced runs pair every traced round with an untraced twin on the same
   seed: the twin gives the tracing overhead, and both must end in the same
   state. *)
let run w ~seed ~seconds ~trace =
  let tracer =
    if trace then
      Some
        {
          trace = Obs.Trace.create ~limit:200_000 ();
          origin = now ();
          steps = Hashtbl.create 8;
          pass2_misses = 0;
        }
    else None
  in
  let rounds = ref [] and overhead = ref [] and errors = ref [] in
  let by_kind = Array.of_list (List.map (fun k -> Obs.Histogram.make (kind_name k)) kinds) in
  let start = now () in
  while
    !rounds = []
    || !errors = []
       && (List.length !rounds < exact_rounds || seconds_between start (now ()) < seconds)
  do
    let seed = (seed * 1000) + List.length !rounds in
    Gc.compact ();
    let r =
      match tracer with
      | None -> round w ~seed ~tracer
      | Some _ ->
        let plain = round w ~seed ~tracer:None in
        Gc.compact ();
        let traced = round w ~seed ~tracer in
        if plain.final <> traced.final then
          errors := "the traced reorganizer left a different final state than Driver.run" :: !errors;
        overhead := ((traced.makespan /. plain.makespan) -. 1.0) :: !overhead;
        { traced with errors = plain.errors @ traced.errors }
    in
    errors := !errors @ r.errors;
    Array.iteri (fun i h -> Array.iter (Obs.Histogram.observe by_kind.(i)) (Obs.Histogram.samples h)) r.sink.lat;
    rounds := r :: !rounds
  done;
  let rounds = List.rev !rounds in
  let of_round r = if trace then r.layers else r.e2e in
  let metrics =
    List.mapi
      (fun i m ->
        let column =
          List.filteri
            (fun j _ -> m.combine <> Exact || j < exact_rounds)
            (List.map (fun r -> List.nth (of_round r) i) rounds)
        in
        let values = List.filter_map (fun c -> c.value) column in
        {
          m with
          value = (if values = [] then None else Some (combine m.combine values));
          samples = List.concat_map (fun c -> c.samples) column;
        })
      (of_round (List.hd rounds))
  in
  let metrics =
    if trace then metrics @ [ count "trace_overhead_frac" "ratio" (Stat.median (Array.of_list !overhead)) ]
    else metrics
  in
  let latency =
    Json.Obj
      (List.map
         (fun k ->
           let xs = Obs.Histogram.samples by_kind.(kind_index k) in
           let at p =
             match Stat.percentile xs p with
             | Some v -> [ (Printf.sprintf "p%g_us" p, Json.Num v) ]
             | None -> []
           in
           (kind_name k, Json.Obj ((("count", Json.Num (float (Array.length xs))) :: at 50.0) @ at 99.0)))
         kinds)
  in
  {
    metrics;
    attempted = List.fold_left (fun n (r : round) -> n + r.attempted) 0 rounds;
    failed = List.fold_left (fun n (r : round) -> n + r.failed) 0 rounds;
    errors = !errors;
    rounds = List.length rounds;
    latency;
    trace = Option.map (fun (tr : tracer) -> tr.trace) tracer;
  }
