module Engine = Sched.Engine
module Store = Shard.Store
module Shard_map = Shard.Shard_map
module Coordinator = Shard.Coordinator
module Router = Shard.Router
module Txn_mgr = Transact.Txn_mgr
module Tree = Btree.Tree

type t = {
  map : Shard_map.t;
  stores : Store.t array;
  coord : Coordinator.t;
  router : Router.t;
  faults : Pager.Fault.t;
}

let shards t = Array.length t.stores

let shard_registry registry i =
  match registry with
  | None -> None
  | Some reg -> Some (Obs.Registry.prefixed reg (Printf.sprintf "shard%d." i))

let thinned ?faults ?(page_size = 512) ?capacity ~seed ~n ~survive ~shards () =
  let faults = match faults with Some f -> f | None -> Pager.Fault.create () in
  let rng = Util.Rng.create seed in
  let scenario = Workload.Sparse.uniform_thinning ~rng ~n ~survive in
  (* Keys live in [0, 2n); cut that span uniformly.  User transactions must
     draw from the same key space for the map to route them. *)
  let map = Shard_map.uniform ~shards ~key_space:(2 * n) in
  let stores =
    Array.init shards (fun i ->
        let mine (k, _) = Shard_map.owner map k = i in
        let st =
          Store.load ~faults ~page_size ?capacity ~shard:(i, shards) ~fill:0.95
            (List.filter mine scenario.Workload.Sparse.initial)
        in
        let deletes = List.filter (fun k -> Shard_map.owner map k = i) scenario.Workload.Sparse.deletes in
        let tx = Txn_mgr.begin_txn st.Store.mgr in
        List.iter (fun k -> ignore (Tree.delete st.Store.tree ~txn:tx k)) deletes;
        Txn_mgr.commit st.Store.mgr tx;
        Store.flush_all st;
        st)
  in
  let coord = Coordinator.create ~map ~stores in
  let router = Router.create coord in
  let expected =
    List.filter
      (fun (k, _) -> not (List.mem k scenario.Workload.Sparse.deletes))
      scenario.Workload.Sparse.initial
  in
  ({ map; stores; coord; router; faults }, expected)

let contents t =
  Array.to_list t.stores
  |> List.concat_map (fun (st : Store.t) -> Btree.Invariant.contents st.Store.tree)

let check_invariants t =
  Array.iter
    (fun (st : Store.t) -> Btree.Invariant.check ~alloc:st.Store.alloc st.Store.tree)
    t.stores

let flush_all t = Array.iter Store.flush_all t.stores

let crash_now t =
  Pager.Fault.disarm t.faults;
  (* One authoritative machine-wide crash event, then every store's volatile
     state goes at once, then the reboot. *)
  Pager.Fault.kill t.faults;
  Array.iter Store.volatile_teardown t.stores;
  Pager.Fault.revive t.faults

let recover ?registry ?tracer ?prot ?(config = Reorg.Config.default) t =
  let n = shards t in
  Array.mapi
    (fun i (st : Store.t) ->
      Reorg.Recovery.restart
        ?registry:(shard_registry registry i)
        ?tracer
        ?prot:(Option.map (fun f -> f i) prot)
        ~shard:(i, n) ~access:st.Store.access ~config ())
    t.stores

let resume_after_recovery t recovered =
  let eng = Engine.create () in
  Array.iteri
    (fun i (ctx, outcome) ->
      Engine.spawn eng ~name:(Printf.sprintf "resume-%d" i) (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx outcome)))
    recovered;
  Engine.run eng;
  flush_all t

type reorg_outcome = {
  reports : Reorg.Driver.report array;
  ticks : int array;
  makespan : int;
  total_ticks : int;
}

let shard_ctx ?registry ?tracer ~config t i =
  let st = t.stores.(i) in
  Reorg.Ctx.make
    ?registry:(shard_registry registry i)
    ?tracer ~shard:(i, shards t) ~access:st.Store.access ~config ()

let register_shard_obs ?registry t =
  match registry with
  | None -> ()
  | Some _ ->
    Array.iteri
      (fun i st ->
        match shard_registry registry i with
        | Some reg -> Store.register_obs st reg
        | None -> ())
      t.stores

let reorg_parallel ?registry ?tracer ?(config = Reorg.Config.default) t =
  register_shard_obs ?registry t;
  let n = shards t in
  let reports = Array.make n Reorg.Driver.empty_report in
  let ticks = Array.make n 0 in
  (* Engine-per-shard: the shards share nothing (locks, log, pages), so
     each engine's final clock is that shard's independent timeline and the
     makespan is what a machine running them side by side would take. *)
  for i = 0 to n - 1 do
    let ctx = shard_ctx ?registry ?tracer ~config t i in
    let eng = Engine.create () in
    Scenario.trace_run eng ctx.Reorg.Ctx.tracer [| t.stores.(i) |];
    (match shard_registry registry i with
    | Some reg -> Engine.register_obs eng reg
    | None -> ());
    Engine.spawn eng ~name:(Printf.sprintf "reorganizer-%d" i) (fun () ->
        reports.(i) <- Reorg.Driver.run ctx);
    Engine.run eng;
    ticks.(i) <- Engine.now eng
  done;
  {
    reports;
    ticks;
    makespan = Array.fold_left max 0 ticks;
    total_ticks = Array.fold_left ( + ) 0 ticks;
  }

let reorg_with_users ?registry ?tracer ?(config = Reorg.Config.default)
    ?(user_mix = Workload.Mix.read_mostly) ?(user_ops = 200) ?xspan ~users ~seed ~key_space t
    =
  register_shard_obs ?registry t;
  let n = shards t in
  let reports = Array.make n Reorg.Driver.empty_report in
  let done_ = ref 0 in
  let eng = Engine.create () in
  (match registry with Some reg -> Engine.register_obs eng reg | None -> ());
  Scenario.trace_run eng tracer t.stores;
  Array.iter (Scenario.arm_olc ~config) t.stores;
  for i = 0 to n - 1 do
    let ctx = shard_ctx ?registry ?tracer ~config t i in
    Engine.spawn eng ~name:(Printf.sprintf "reorganizer-%d" i) (fun () ->
        reports.(i) <- Reorg.Driver.run ctx;
        incr done_)
  done;
  let ustats =
    if users > 0 then
      Workload.Mix.spawn_cross_users eng ~router:t.router ~seed ~users ~ops_per_user:user_ops
        ~stop:(fun () -> !done_ = n)
        ~key_space ?xspan ~mix:user_mix ()
    else Workload.Mix.create_stats ()
  in
  Engine.run eng;
  let final = Engine.now eng in
  ( {
      reports;
      ticks = Array.make n final;
      makespan = final;
      total_ticks = final;
    },
    ustats )
