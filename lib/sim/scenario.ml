module Engine = Sched.Engine
module Tree = Btree.Tree
module Txn_mgr = Transact.Txn_mgr

let records_for n = List.init n (fun i -> (2 * i, Db.payload_for (2 * i)))

let aged ?faults ?(page_size = 512) ?(leaf_pages = 4096) ?(span_factor = 1.4) ?record_locking
    ?capacity ~seed ~n ~f1 () =
  let records = records_for n in
  (* Upper levels degrade less than leaves: load them moderately sparse. *)
  let db =
    Db.load ?faults ~page_size ~leaf_pages ?capacity ?record_locking ~fill:f1
      ~internal_fill:(max f1 0.5) records
  in
  let rng = Util.Rng.create seed in
  Workload.Scramble.spread_leaves db.Db.tree rng ~span_factor;
  Db.flush_all db;
  (db, records)

let thinned ?(page_size = 512) ~seed ~n ~survive () =
  let rng = Util.Rng.create seed in
  let scenario = Workload.Sparse.uniform_thinning ~rng ~n ~survive in
  let db = Db.load ~page_size ~fill:0.95 scenario.Workload.Sparse.initial in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  List.iter
    (fun k -> ignore (Tree.delete db.Db.tree ~txn:tx k))
    scenario.Workload.Sparse.deletes;
  Txn_mgr.commit db.Db.mgr tx;
  Db.flush_all db;
  let expected =
    List.filter
      (fun (k, _) -> not (List.mem k scenario.Workload.Sparse.deletes))
      scenario.Workload.Sparse.initial
  in
  (db, expected)

let purged ?(page_size = 512) ~seed ~n ~ranges ~width () =
  let rng = Util.Rng.create seed in
  let scenario = Workload.Sparse.range_purge ~rng ~n ~ranges ~width in
  let db = Db.load ~page_size ~fill:0.92 scenario.Workload.Sparse.initial in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  List.iter
    (fun k -> ignore (Tree.delete db.Db.tree ~txn:tx k))
    scenario.Workload.Sparse.deletes;
  Txn_mgr.commit db.Db.mgr tx;
  Db.flush_all db;
  let expected =
    List.filter
      (fun (k, _) -> not (List.mem k scenario.Workload.Sparse.deletes))
      scenario.Workload.Sparse.initial
  in
  (db, expected)

let arm_olc ~config db =
  Btree.Access.set_olc db.Db.access ~max_retries:config.Reorg.Config.olc_max_retries
    config.Reorg.Config.olc

let trace_run eng tracer stores =
  Engine.set_tracer eng tracer;
  Option.iter (fun tr -> Array.iter (fun st -> Trace_sink.subscribe tr st.Db.bus) stores) tracer

type run = {
  registry : Obs.Registry.t option;
  tracer : Obs.Trace.t option;
  checker : Model.Checker.t option;
  config : Reorg.Config.t;
  pass1_workers : int;
  users : int;
  user_mix : Workload.Mix.mix;
  user_ops : int;
  user_key_space : int option;
  seed : int;
  sampler : Obs.Health.Sampler.t option;
  sample_every : int;
  hook : Engine.t -> Reorg.Ctx.t -> stop:(unit -> bool) -> unit;
}

let default =
  { registry = None; tracer = None; checker = None; config = Reorg.Config.default;
    pass1_workers = 1; users = 0; user_mix = Workload.Mix.read_mostly; user_ops = 10_000;
    user_key_space = None; seed = 1; sampler = None; sample_every = 25;
    hook = (fun _ _ ~stop:_ -> ()) }

type result = {
  ctx : Reorg.Ctx.t;
  report : Reorg.Driver.report;
  users : Workload.Mix.stats;
  reorg_ticks : int;
  ticks : int;
}

let run_reorg (r : run) db =
  Option.iter (fun c -> Model.Checker.attach c ~shard:0 db) r.checker;
  arm_olc ~config:r.config db;
  let ctx = Reorg.Ctx.make ?registry:r.registry ~access:db.Db.access ~config:r.config () in
  let eng = Engine.create () in
  trace_run eng r.tracer [| db |];
  (match r.registry with
  | Some reg ->
    Engine.register_obs eng reg;
    Db.register_obs db reg
  | None -> ());
  let report = ref None and reorg_ticks = ref 0 in
  let stop () = !report <> None in
  (* The sampler is its own scheduler process on the engine's logical
     clock: it snapshots immediately, then every [sample_every] ticks, and
     takes one final sample after the reorganizer reports — so the series
     always shows the recovered end state. *)
  (match r.sampler with
  | Some s ->
    Obs.Health.Sampler.set_clock s (fun () -> Engine.now eng);
    Engine.spawn eng ~name:"sampler" (fun () ->
        let rec loop () =
          ignore (Obs.Health.Sampler.sample s : Obs.Health.Sampler.snapshot);
          if not (stop ()) then begin
            Engine.sleep (max 1 r.sample_every);
            loop ()
          end
        in
        loop ())
  | None -> ());
  Engine.spawn eng ~name:"reorganizer" (fun () ->
      let rep = Reorg.Driver.run ~pass1_workers:r.pass1_workers ctx in
      reorg_ticks := Engine.current_time ();
      report := Some rep);
  let users =
    if r.users > 0 then
      Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:r.seed ~users:r.users
        ~ops_per_user:r.user_ops ?key_space:r.user_key_space ~stop ~mix:r.user_mix ()
    else Workload.Mix.create_stats ()
  in
  r.hook eng ctx ~stop;
  Engine.run eng;
  match !report with
  | Some report -> { ctx; report; users; reorg_ticks = !reorg_ticks; ticks = Engine.now eng }
  | None -> failwith "Scenario.run_reorg: reorganizer did not finish"
