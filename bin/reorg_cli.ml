(* reorg-cli: drive the simulated database from the command line.

   The database lives for one invocation (the disk is in-memory), so each
   subcommand builds a scenario, acts on it, and reports — a REPL-style tour
   of the system:

     reorg-cli demo                          # build, degrade, reorganize
     reorg-cli reorganize --records 5000 --fill 0.25 --no-swap
     reorg-cli inspect --records 2000 --fill 0.3
     reorg-cli crash --at 150                # crash + forward recovery
     reorg-cli workload --users 8 --mix update-heavy
     reorg-cli torture --seed 42 --stride 1  # crash at every write boundary *)

open Cmdliner

let setup_logs () = ()

(* ------------- shared options ------------- *)

let records_t =
  Arg.(value & opt int 2000 & info [ "records"; "n" ] ~docv:"N" ~doc:"Number of records.")

let fill_t =
  Arg.(value & opt float 0.3 & info [ "fill"; "f1" ] ~docv:"F" ~doc:"Initial leaf fill factor.")

let f2_t =
  Arg.(value & opt float 0.9 & info [ "f2" ] ~docv:"F" ~doc:"Target leaf fill factor.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* A crash-boundary stride: every K-th boundary is swept, so K < 1 is a
   usage error rather than a failure inside the sweep. *)
let stride_t ~doc =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))
  in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) 17 & info [ "stride" ] ~docv:"K" ~doc)

let page_size_t =
  Arg.(value & opt int 512 & info [ "page-size" ] ~docv:"BYTES" ~doc:"Page size in bytes.")

let no_swap_t =
  Arg.(value & flag & info [ "no-swap" ] ~doc:"Skip pass 2 (swapping is optional in the paper).")

let no_shrink_t = Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip pass 3.")

let workers_t =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N" ~doc:"Parallel pass-1 workers (future-work extension).")

let lambda_t =
  Arg.(
    value & flag
    & info [ "lambda" ]
        ~doc:"Use the lambda-tree switch variant (no forced aborts, deferred cleanup).")

let heuristic_t =
  let policy =
    Arg.enum
      [
        ("paper", Reorg.Config.Paper_heuristic);
        ("first-free", Reorg.Config.First_free);
        ("none", Reorg.Config.No_new_place);
      ]
  in
  Arg.(
    value
    & opt policy Reorg.Config.Paper_heuristic
    & info [ "heuristic" ] ~docv:"POLICY" ~doc:"Find-Free-Space policy: paper, first-free, none.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).")

let metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Dump the metrics registry (all subsystems) after the run.")

let health_t =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Print the tree-health table after the run: fill-factor histogram buckets, \
           fragmentation index, side-file backlog, allocator churn.")

(* Build the run's observability objects from the flags: a registry whenever
   either flag wants one (the trace is more useful with the counters
   alongside), a tracer only when a file was requested. *)
let obs_setup ~trace ~metrics =
  let registry = if metrics then Some (Obs.Registry.create ()) else None in
  let tracer = if trace <> None then Some (Obs.Trace.create ()) else None in
  (registry, tracer)

let obs_report ~trace registry tracer =
  (match (trace, tracer) with
  | Some file, Some tr ->
    Obs.Trace.write_chrome tr file;
    Printf.printf "trace: %d events -> %s (chrome://tracing or ui.perfetto.dev)\n"
      (Obs.Trace.event_count tr) file
  | _ -> ());
  match registry with
  | Some reg ->
    print_endline "--- metrics ---";
    print_string (Obs.Registry.dump reg)
  | None -> ()

(* --health: the incremental tracker's view, rendered through the same
   registry table dump the --metrics flag uses (a registry holding just the
   health.* gauges), plus a readable fill histogram. *)
let health_report ~health db =
  if health then begin
    let h = db.Sim.Db.health in
    let st = Obs.Health.stats h in
    print_endline "--- tree health ---";
    let reg = Obs.Registry.create () in
    Obs.Health.register_obs h reg;
    print_string (Obs.Registry.dump reg);
    let total = max 1 st.Obs.Health.leaves in
    print_endline "fill-factor histogram (leaves per decile):";
    Array.iteri
      (fun i n ->
        Printf.printf "  %3d-%3d%% %6d %s\n" (i * 10)
          ((i + 1) * 10)
          n
          (String.make (50 * n / total) '#'))
      st.Obs.Health.fill_buckets;
    Printf.printf
      "utilization %.1f%%, fragmentation %.1f%% (%d chain breaks / %d leaves), side-file \
       backlog %d (peak %d), free leaf pages %d\n"
      (100.0 *. st.Obs.Health.utilization)
      (100.0 *. st.Obs.Health.fragmentation)
      st.Obs.Health.chain_breaks st.Obs.Health.leaves st.Obs.Health.backlog
      st.Obs.Health.backlog_peak st.Obs.Health.free_pages
  end

(* The CLI's contract: a run that leaves the tree in a bad state must not
   exit 0, even though the report above printed fine. *)
let check_invariants db =
  match Btree.Invariant.check ~alloc:db.Sim.Db.alloc db.Sim.Db.tree with
  | () -> print_endline "invariants OK"
  | exception e ->
    Printf.eprintf "invariant check FAILED: %s\n" (Printexc.to_string e);
    exit 2

let mk_config ~f2 ~no_swap ~no_shrink ~heuristic ~lambda =
  {
    Reorg.Config.default with
    Reorg.Config.f2;
    swap_pass = not no_swap;
    shrink_pass = not no_shrink;
    heuristic;
    lambda_switch = lambda;
  }

let print_tree_stats label tree =
  let s = Btree.Tree.stats tree in
  Printf.printf "%-10s height=%d leaves=%d internal=%d records=%d fill avg=%.0f%% min=%.0f%%\n"
    label s.Btree.Tree.height s.Btree.Tree.leaf_count s.Btree.Tree.internal_count
    s.Btree.Tree.record_count
    (100.0 *. s.Btree.Tree.avg_leaf_fill)
    (100.0 *. s.Btree.Tree.min_leaf_fill)

(* ------------- subcommands ------------- *)

let demo trace metrics health =
  setup_logs ();
  let db, _ = Sim.Scenario.aged ~seed:42 ~n:2000 ~f1:0.25 () in
  print_tree_stats "before" db.Sim.Db.tree;
  let registry, tracer = obs_setup ~trace ~metrics in
  let { Sim.Scenario.ctx; report; _ } =
    Sim.Scenario.run_reorg { Sim.Scenario.default with registry; tracer } db
  in
  print_tree_stats "after" db.Sim.Db.tree;
  Format.printf "report: %a@." Reorg.Driver.pp_report report;
  Format.printf "metrics: %a@." Reorg.Metrics.pp ctx.Reorg.Ctx.metrics;
  obs_report ~trace registry tracer;
  health_report ~health db;
  check_invariants db

let reorganize records fill f2 seed page_size no_swap no_shrink heuristic lambda workers trace
    metrics health =
  setup_logs ();
  let db, _ = Sim.Scenario.aged ~page_size ~seed ~n:records ~f1:fill () in
  print_tree_stats "before" db.Sim.Db.tree;
  let config = mk_config ~f2 ~no_swap ~no_shrink ~heuristic ~lambda in
  let registry, tracer = obs_setup ~trace ~metrics in
  let { Sim.Scenario.ctx; report; _ } =
    Sim.Scenario.run_reorg
      { Sim.Scenario.default with registry; tracer; config; pass1_workers = workers }
      db
  in
  print_tree_stats "after" db.Sim.Db.tree;
  Format.printf "report: %a@." Reorg.Driver.pp_report report;
  Format.printf "metrics: %a@." Reorg.Metrics.pp ctx.Reorg.Ctx.metrics;
  let log_stats = Wal.Log.stats db.Sim.Db.log in
  Printf.printf "log: %d records, %s total\n" log_stats.Wal.Log.records
    (Util.Table.bytes log_stats.Wal.Log.bytes).Util.Table.text;
  obs_report ~trace registry tracer;
  health_report ~health db;
  check_invariants db

let inspect records fill seed page_size verbose =
  setup_logs ();
  let db, _ = Sim.Scenario.aged ~page_size ~seed ~n:records ~f1:fill () in
  print_tree_stats "tree" db.Sim.Db.tree;
  if verbose then begin
    print_string (Btree.Dump.tree db.Sim.Db.tree);
    print_endline "--- leaf chain ---";
    print_string (Btree.Dump.leaf_chain db.Sim.Db.tree)
  end;
  (* Physical layout of the leaf zone. *)
  let lo, _ = Pager.Alloc.leaf_zone db.Sim.Db.alloc in
  let order = Btree.Leaf_order.create db.Sim.Db.tree in
  let leaves = Btree.Leaf_order.leaves order in
  Printf.printf "leaf zone starts at page %d; %d leaves; first 20 (key order): %s\n" lo
    (List.length leaves)
    (String.concat " " (List.map string_of_int (List.filteri (fun i _ -> i < 20) leaves)));
  Printf.printf "out of disk order: %d of %d\n" (Btree.Leaf_order.out_of_order order)
    (List.length leaves)

let crash at records seed =
  setup_logs ();
  let db, expected = Sim.Scenario.aged ~seed ~n:records ~f1:0.3 () in
  let ctx = Reorg.Ctx.make ~access:db.Sim.Db.access ~config:Reorg.Config.default () in
  let eng = Sched.Engine.create () in
  Sched.Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  Sched.Engine.spawn eng (fun () ->
      Sched.Engine.sleep at;
      Sched.Engine.stop eng);
  Sched.Engine.run eng;
  Printf.printf "crash at tick %d: %d units complete, LK=%d\n" at
    (Reorg.Metrics.units ctx.Reorg.Ctx.metrics)
    (Reorg.Rtable.lk ctx.Reorg.Ctx.rtable);
  Sim.Db.crash_now ~flush_seed:seed db;
  let ctx2, outcome =
    Reorg.Recovery.restart ~access:db.Sim.Db.access ~config:Reorg.Config.default ()
  in
  Printf.printf "restart: redo=%d losers=%d finished-unit=%s resume=%s\n"
    outcome.Reorg.Recovery.redo_applied outcome.Reorg.Recovery.losers_undone
    (match outcome.Reorg.Recovery.finished_unit with None -> "-" | Some u -> string_of_int u)
    (match outcome.Reorg.Recovery.resume with
    | Reorg.Recovery.No_reorg -> "nothing"
    | Reorg.Recovery.Resume_passes { lk } -> Printf.sprintf "leaf passes from LK=%d" lk
    | Reorg.Recovery.Resume_pass3 { stable_key; _ } ->
      Printf.sprintf "pass 3 from stable key %d" stable_key
    | Reorg.Recovery.Finish_switch _ -> "finish switch");
  let eng2 = Sched.Engine.create () in
  Sched.Engine.spawn eng2 (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
  Sched.Engine.run eng2;
  Btree.Invariant.check ~alloc:db.Sim.Db.alloc db.Sim.Db.tree;
  Btree.Invariant.check_consistent_with db.Sim.Db.tree ~expected;
  print_tree_stats "after" db.Sim.Db.tree;
  print_endline "all records intact, invariants OK"

let torture seed stride records users pipeline olc trace metrics =
  setup_logs ();
  let registry, tracer = obs_setup ~trace ~metrics in
  let config = { Reorg.Config.default with olc } in
  match Sim.Torture.run ?registry ?tracer ~config ~seed ~stride ~n:records ~users ~pipeline () with
  | r ->
    Printf.printf
      "torture: seed=%d stride=%d\n\
       boundaries: %d page writes, %d log forces\n\
       tested %d crash points: %d crashed, %d survived to the end\n\
       faults: %d torn page writes, %d torn WAL tails (%d repaired on recovery)\n\
       recovery finished %d interrupted units forward\n"
      seed stride r.Sim.Torture.write_boundaries r.Sim.Torture.force_boundaries
      r.Sim.Torture.points r.Sim.Torture.crashes r.Sim.Torture.survivors
      r.Sim.Torture.torn_writes r.Sim.Torture.torn_tails r.Sim.Torture.torn_repaired
      r.Sim.Torture.units_finished;
    obs_report ~trace registry tracer;
    print_endline "all crash points recovered, invariants OK"
  | exception Sim.Torture.Failed msg ->
    obs_report ~trace registry tracer;
    Printf.eprintf "torture FAILED: %s\n" msg;
    exit 2

(* --shards N >= 2: the keyspace-sharded engine.  One store, reorganizer
   and WAL per shard; user transactions go through the router and the
   cross-shard 2PL coordinator instead of a single tree. *)
let sharded_workload ~users ~mix ~records ~seed ~shards ~trace ~metrics =
  let registry, tracer = obs_setup ~trace ~metrics in
  let t, _ = Sim.Sharded.thinned ~seed ~n:records ~survive:0.35 ~shards () in
  let outcome, stats =
    Sim.Sharded.reorg_with_users ?registry ?tracer ~user_mix:mix ~users ~seed:(seed + 1)
      ~key_space:(2 * records) t
  in
  Array.iteri
    (fun i (r : Reorg.Driver.report) ->
      Format.printf "shard %d reorg: %a@." i Reorg.Driver.pp_report r)
    outcome.Sim.Sharded.reports;
  Printf.printf "mixed-phase ticks: %d (reorganizers + %d cross-shard users on one engine)\n"
    outcome.Sim.Sharded.makespan users;
  let cs = Shard.Coordinator.stats t.Sim.Sharded.coord in
  Printf.printf
    "coordinator: %d begun, %d committed (%d cross-shard), %d aborted, %d commit records\n"
    cs.Shard.Coordinator.begun cs.Shard.Coordinator.committed
    cs.Shard.Coordinator.cross_shard_commits cs.Shard.Coordinator.aborted
    cs.Shard.Coordinator.commit_records;
  Printf.printf
    "users: %d committed (%d reads, %d inserts, %d deletes), %d give-ups, %d aborts, %d \
     blocked ticks\n"
    stats.Workload.Mix.committed stats.Workload.Mix.reads stats.Workload.Mix.inserts
    stats.Workload.Mix.deletes stats.Workload.Mix.give_ups stats.Workload.Mix.aborted
    stats.Workload.Mix.blocked_ticks;
  obs_report ~trace registry tracer;
  match Sim.Sharded.check_invariants t with
  | () -> Printf.printf "invariants OK (all %d shards)\n" shards
  | exception e ->
    Printf.eprintf "invariant check FAILED: %s\n" (Printexc.to_string e);
    exit 2

let workload users mix_name records seed shards trace metrics health =
  setup_logs ();
  let mix =
    match mix_name with
    | "read-only" -> Workload.Mix.read_only
    | "update-heavy" -> Workload.Mix.update_heavy
    | _ -> Workload.Mix.read_mostly
  in
  if shards > 1 then sharded_workload ~users ~mix ~records ~seed ~shards ~trace ~metrics
  else begin
  let db, _ = Sim.Scenario.aged ~seed ~n:records ~f1:0.3 () in
  let registry, tracer = obs_setup ~trace ~metrics in
  let { Sim.Scenario.ctx; report; users = stats; _ } =
    Sim.Scenario.run_reorg { Sim.Scenario.default with registry; tracer; users; user_mix = mix } db
  in
  Format.printf "reorg: %a@." Reorg.Driver.pp_report report;
  Format.printf "metrics: %a@." Reorg.Metrics.pp ctx.Reorg.Ctx.metrics;
  Printf.printf
    "users: %d committed (%d reads, %d inserts, %d deletes), %d give-ups, %d aborts, %d \
     blocked ticks\n"
    stats.Workload.Mix.committed stats.Workload.Mix.reads stats.Workload.Mix.inserts
    stats.Workload.Mix.deletes stats.Workload.Mix.give_ups stats.Workload.Mix.aborted
    stats.Workload.Mix.blocked_ticks;
  obs_report ~trace registry tracer;
  health_report ~health db;
  check_invariants db
  end


(* Model conformance: replay the seeded workloads and crash sweeps through
   the protocol models (lib/model), or run a mutation self-test that proves
   the checker catches a deliberately broken protocol.  Exit code 2 whenever
   a violation is reported — which is the EXPECTED outcome of the mutation
   runs (CI asserts it). *)
let model seeds experiments stride records pipeline olc mutate =
  setup_logs ();
  let split s = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  match mutate with
  | "none" ->
    let seeds =
      try List.map int_of_string (split seeds)
      with Failure _ ->
        Printf.eprintf "model: --seeds wants a comma-separated list of integers\n";
        exit 1
    in
    let summaries =
      List.concat_map
        (fun exp ->
          match exp with
          | "workload" -> List.map (fun seed -> Sim.Conformance.workload ~olc ~seed ()) seeds
          | "torture" ->
            List.map
              (fun seed ->
                Sim.Conformance.torture ~n:records ~pipeline ~olc ~seed ~stride ~users:2 ())
              seeds
          | "shard" ->
            List.map (fun seed -> Sim.Conformance.shard_torture ~n:records ~seed ~stride ()) seeds
          | other ->
            Printf.eprintf
              "model: unknown experiment %S (want workload, torture and/or shard)\n" other;
            exit 1)
        (split experiments)
    in
    List.iter (fun s -> print_endline (Sim.Conformance.to_string s)) summaries;
    let bad = List.filter (fun s -> not (Sim.Conformance.ok s)) summaries in
    if bad <> [] then begin
      Printf.eprintf "model conformance FAILED in %d run(s)\n" (List.length bad);
      exit 2
    end;
    Printf.printf "model conformance OK (%d run(s))\n" (List.length summaries)
  | ("table1" | "switch" | "olc") as which ->
    let s =
      match which with
      | "table1" -> Sim.Conformance.mutate_table1 ()
      | "switch" -> Sim.Conformance.mutate_switch ()
      | _ -> Sim.Conformance.mutate_olc ()
    in
    print_endline (Sim.Conformance.to_string s);
    if Sim.Conformance.ok s then begin
      Printf.eprintf "mutation self-test FAILED: the checker missed the broken %s protocol\n"
        which;
      exit 1
    end;
    print_endline "mutation caught by the checker (exit 2, as the self-test expects)";
    exit 2
  | other ->
    Printf.eprintf "model: unknown --mutate %S (want none, table1, switch or olc)\n" other;
    exit 1

(* ------------- command wiring ------------- *)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Build, degrade and reorganize a database end to end.")
    Term.(const demo $ trace_t $ metrics_t $ health_t)

let reorganize_cmd =
  Cmd.v
    (Cmd.info "reorganize" ~doc:"Reorganize an aged tree and report everything.")
    Term.(
      const reorganize $ records_t $ fill_t $ f2_t $ seed_t $ page_size_t $ no_swap_t
      $ no_shrink_t $ heuristic_t $ lambda_t $ workers_t $ trace_t $ metrics_t $ health_t)

let inspect_cmd =
  let verbose_t =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Dump every page of the tree.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show the physical layout of an aged tree.")
    Term.(const inspect $ records_t $ fill_t $ seed_t $ page_size_t $ verbose_t)

let crash_cmd =
  let at_t =
    Arg.(value & opt int 150 & info [ "at" ] ~docv:"TICK" ~doc:"Crash after this many ticks.")
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash mid-reorganization and recover forward.")
    Term.(const crash $ at_t $ records_t $ seed_t)

let torture_cmd =
  let stride_t =
    stride_t ~doc:"Test every $(docv)-th crash point (1 = exhaustive sweep of every boundary)."
  in
  let users_t =
    Arg.(
      value & opt int 0
      & info [ "users" ] ~docv:"N" ~doc:"Concurrent user writers during each cycle.")
  in
  let records_t =
    Arg.(value & opt int 400 & info [ "records"; "n" ] ~docv:"N" ~doc:"Number of records.")
  in
  let pipeline_t =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Run every cycle with the asynchronous durability pipeline (group commit, \
             elevator writeback, fuzzy checkpoints with WAL truncation) attached.")
  in
  let olc_t =
    Arg.(
      value & flag
      & info [ "olc" ]
          ~doc:
            "Turn the optimistic lock-free read path on in every cycle: users read their \
             inserts back without locks, so crashes land inside optimistic descents.")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Crash at every write boundary (torn pages, torn WAL tails), recover, verify \
          forward recovery.")
    Term.(
      const torture $ seed_t $ stride_t $ records_t $ users_t $ pipeline_t $ olc_t $ trace_t
      $ metrics_t)

let workload_cmd =
  let users_t =
    Arg.(value & opt int 8 & info [ "users" ] ~docv:"N" ~doc:"Concurrent user processes.")
  in
  let mix_t =
    Arg.(
      value
      & opt string "read-mostly"
      & info [ "mix" ] ~docv:"MIX" ~doc:"read-only | read-mostly | update-heavy.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the keyspace over $(docv) shards: one store, WAL and reorganizer \
             per shard, cross-shard user transactions through the router and 2PL \
             coordinator.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run user transactions concurrently with the reorganizer.")
    Term.(
      const workload $ users_t $ mix_t $ records_t $ seed_t $ shards_t $ trace_t $ metrics_t
      $ health_t)


let model_cmd =
  let seeds_t =
    Arg.(
      value
      & opt string "11,23,42"
      & info [ "seeds" ] ~docv:"S1,S2,.." ~doc:"Seeds for the conformance runs.")
  in
  let experiments_t =
    Arg.(
      value
      & opt string "workload,torture,shard"
      & info [ "experiments" ] ~docv:"LIST"
          ~doc:"Comma-separated subset of: workload, torture, shard.")
  in
  let stride_t =
    stride_t ~doc:"Crash-boundary stride for the torture conformance runs (1 = exhaustive)."
  in
  let records_t =
    Arg.(value & opt int 120 & info [ "records"; "n" ] ~docv:"N" ~doc:"Records per tree.")
  in
  let pipeline_t =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Attach the asynchronous durability pipeline during the torture conformance \
             runs — crashes then land inside group-commit windows and across checkpoint \
             truncation.")
  in
  let mutate_t =
    Arg.(
      value
      & opt string "none"
      & info [ "mutate" ] ~docv:"WHICH"
          ~doc:
            "Mutation self-test: $(b,table1) flips one lock-compatibility cell, \
             $(b,switch) breaks the \xc2\xa77.1 CK-advance guard, $(b,olc) skips the \
             optimistic-read version bumps; the checker must object (exit 2).")
  in
  let olc_t =
    Arg.(
      value & flag
      & info [ "olc" ]
          ~doc:
            "Run the conformance workloads and torture sweeps with the optimistic read \
             path on; committed optimistic reads are judged by the olc model machine.")
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Replay seeded workloads and crash sweeps through the protocol state-machine \
          models (Table-1 locks, unit lifecycle, switch/drain, optimistic reads); exit 2 \
          on any violation.")
    Term.(
      const model $ seeds_t $ experiments_t $ stride_t $ records_t $ pipeline_t $ olc_t
      $ mutate_t)

let () =
  let info =
    Cmd.info "reorg-cli" ~version:"1.0.0"
      ~doc:"On-line reorganization of sparsely-populated B+-trees (Salzberg & Zou, SIGMOD '96)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ demo_cmd; reorganize_cmd; inspect_cmd; crash_cmd; workload_cmd; torture_cmd; model_cmd ]))
