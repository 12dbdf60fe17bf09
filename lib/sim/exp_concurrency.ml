(* Experiment E2 — §8 "better concurrency": user transactions running while
   the reorganizer works, paper method vs the Tandem-style [Smi90] baseline
   (which X-locks the whole file for every two-block operation).

   Reported per method: how long the reorganization took, how many user
   operations completed meanwhile, their mean/max latency, and how long they
   sat blocked on locks.  A no-reorganization control gives the undisturbed
   latency. *)

module Engine = Sched.Engine

type run = {
  name : string;
  duration : int;
  committed : int;
  aborted : int;
  give_ups : int;
  blocked : int;
  mean_latency : float;
  max_latency : int;
}

let users = 8
let user_mix = Workload.Mix.read_mostly

(* Every arm's users read by the paper's locked protocol: [run_reorg] arms
   its store from [config]; the arms that bypass it arm theirs here. *)
let config = Reorg.Config.paper

let mk_db ?record_locking seed = Scenario.aged ?record_locking ~seed ~n:1500 ~f1:0.3 ()

let run_ours ?record_locking seed =
  let db, _ = mk_db ?record_locking seed in
  let r =
    Scenario.run_reorg
      { Scenario.default with config; users; user_mix; user_ops = 100_000; seed = 99 }
      db
  in
  (r.Scenario.ticks, r.Scenario.users, db)

(* A comparator reorganization beside the same users. *)
let run_baseline seed reorganize =
  let db, _ = mk_db seed in
  Scenario.arm_olc ~config db;
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      reorganize db.Db.access;
      finished := true);
  let st =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:99 ~users ~ops_per_user:100_000
      ~stop:(fun () -> !finished)
      ~mix:user_mix ()
  in
  let t0 = Engine.now eng in
  Engine.run eng;
  (Engine.now eng - t0, st, db)

let run_control seed ops =
  let db, _ = mk_db seed in
  Scenario.arm_olc ~config db;
  let eng = Engine.create () in
  let st =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:99 ~users
      ~ops_per_user:(max 1 (ops / users))
      ~mix:user_mix ()
  in
  let t0 = Engine.now eng in
  Engine.run eng;
  (Engine.now eng - t0, st, db)

let to_run name (duration, (st : Workload.Mix.stats), _db) =
  {
    name;
    duration;
    committed = st.Workload.Mix.committed;
    aborted = st.aborted;
    give_ups = st.give_ups;
    blocked = st.blocked_ticks;
    mean_latency =
      Util.Stats.ratio (float_of_int st.op_ticks) (float_of_int st.committed);
    max_latency = st.max_op_ticks;
  }

let run () =
  let seed = 41 in
  let ours = run_ours seed in
  let ours_rec = run_ours ~record_locking:true seed in
  let tandem =
    run_baseline seed (fun access -> ignore (Baseline.Tandem.reorganize ~access ~f2:0.9))
  in
  let offline =
    run_baseline seed (fun access ->
        ignore (Baseline.Offline.reorganize ~access ~f2:0.9 : Baseline.Offline.stats))
  in
  let _, ours_st, _ = ours in
  let control = run_control seed ours_st.Workload.Mix.committed in
  let rows =
    [ to_run "paper (online)" ours; to_run "paper + record locks" ours_rec;
      to_run "tandem [Smi90]" tandem; to_run "offline rebuild" offline;
      to_run "no-reorg control" control ]
  in
  let table =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "E2 — user transactions during reorganization (%d users, 80/10/10 mix)" users)
      [ ("method", Util.Table.Left); ("reorg ticks", Util.Table.Right);
        ("user ops done", Util.Table.Right); ("ops/1k ticks", Util.Table.Right);
        ("mean latency", Util.Table.Right); ("max latency", Util.Table.Right);
        ("blocked ticks", Util.Table.Right); ("give-ups", Util.Table.Right);
        ("aborts", Util.Table.Right) ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row table
        [ Util.Table.text r.name; Util.Table.int r.duration; Util.Table.int r.committed;
          Util.Table.float
            (Util.Stats.ratio (1000.0 *. float_of_int r.committed) (float_of_int r.duration));
          Util.Table.float r.mean_latency; Util.Table.int r.max_latency;
          Util.Table.int r.blocked; Util.Table.int r.give_ups;
          Util.Table.int r.aborted ])
    rows;
  table
