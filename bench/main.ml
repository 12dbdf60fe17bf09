(* Benchmark & experiment harness.

   With no arguments: run every experiment (the paper's table, figures and
   quantitative claims).  With arguments: run only the named targets.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1 swaps recovery

   --trace FILE and/or --metrics run an instrumented canonical scenario
   (aged tree, concurrent users) and emit a Chrome trace_event timeline /
   a metrics-registry dump instead of the experiment suite. *)

let experiments : (string * string * (unit -> Util.Table.t)) list =
  [
    ( "table1",
      "Table 1: lock-mode compatibility matrix",
      fun () -> fst (Sim.Exp_lock_table.run ()) );
    ("figure1", "Figure 1: three-pass walkthrough", Sim.Exp_passes.run_figure1);
    ("figure2", "Figure 2: leaf-reorg main loop branch profile", Sim.Exp_passes.run_figure2);
    ( "swaps",
      "E1: Find-Free-Space heuristic vs naive (swap reduction)",
      fun () -> Sim.Exp_swaps.run () );
    ("concurrency", "E2: user throughput during reorganization vs Tandem", Sim.Exp_concurrency.run);
    ("recovery", "E3: forward recovery vs rollback after a crash", Sim.Exp_recovery.run);
    ("logsize", "E4: log volume with/without careful writing", Sim.Exp_logsize.run);
    ("range", "E5: range-scan I/O before/after reorganization", Sim.Exp_range.run);
    ("granularity", "E6: pages per unit and overhead vs Tandem", Sim.Exp_granularity.run);
    ("shrink", "E7: pass-3 height reduction and lock footprint", Sim.Exp_shrink.run);
    ("switch", "E8: switch latency under concurrent updates", Sim.Exp_switch.run);
    ( "ablation",
      "Design-knob ablations (pass 2/3 off, f2 sweep, careful writing, stable cadence)",
      Sim.Exp_ablation.run );
    ("unitsize", "§6 trade-off: pages per lock envelope vs user blocking", Sim.Exp_unitsize.run);
    ("parallel", "Future work: range-partitioned parallel pass 1", Sim.Exp_parallel.run);
    ( "health",
      "H1: online tree-health telemetry (sparsify, reorg, sampled series)",
      Sim.Exp_health.run );
    ( "shard",
      "S1: keyspace-sharded engine — per-shard reorganizers, makespan scaling",
      fun () -> Sim.Exp_shard.run () );
    ( "groupcommit",
      "G1: group commit + async I/O pipeline vs synchronous durability",
      Sim.Exp_groupcommit.run );
    ( "olc",
      "R1: optimistic version-validated reads vs the locked reader protocol",
      Sim.Exp_olc.run );
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline (--json FILE)                             *)
(* ------------------------------------------------------------------ *)

(* Schema (version 7): one BENCH_<rev>.json per revision, committed next to
   the code, so any two revisions can be diffed field-by-field.  Every
   experiment entry carries wall-clock, the deterministic counters the Probe
   collector sums over all arms, and [rows]: the experiment's printed table
   as header-keyed raw values (EXPERIMENTS.md documents the fields). *)
let json_schema_version = 7

let emit_experiment buf (wall, s, table) =
  let module J = Obs.Json in
  let i n = fun b -> J.int b n in
  let d = s.Sim.Probe.disk in
  let p = s.Sim.Probe.pool in
  let l = s.Sim.Probe.lock in
  let w = s.Sim.Probe.wal in
  J.obj buf
    [
      ("wall_clock_s", fun b -> J.float b wall);
      ( "engine",
        fun b ->
          J.obj b
            [
              ("engines", i s.Sim.Probe.engines);
              ("ticks", i s.Sim.Probe.ticks);
              ("dispatches", i s.Sim.Probe.dispatches);
            ] );
      ( "io",
        fun b ->
          J.obj b
            [
              ("reads", i d.Pager.Disk.reads);
              ("writes", i d.Pager.Disk.writes);
              ("seq_reads", i d.Pager.Disk.seq_reads);
              ("rand_reads", i d.Pager.Disk.rand_reads);
              ("seq_writes", i d.Pager.Disk.seq_writes);
              ("rand_writes", i d.Pager.Disk.rand_writes);
              ("io_cost", fun b -> J.float b s.Sim.Probe.io_cost);
            ] );
      ( "pager",
        fun b ->
          J.obj b
            [
              ("hits", i p.Pager.Buffer_pool.s_hits);
              ("misses", i p.Pager.Buffer_pool.s_misses);
              ("flushes", i p.Pager.Buffer_pool.s_flushes);
              ("dep_flushes", i p.Pager.Buffer_pool.s_dep_flushes);
              ("evictions", i p.Pager.Buffer_pool.s_evictions);
              ("torn_detected", i p.Pager.Buffer_pool.s_torn_detected);
            ] );
      ( "lock",
        fun b ->
          J.obj b
            [
              ("acquires", i l.Lockmgr.Lock_mgr.acquires);
              ("waits", i l.Lockmgr.Lock_mgr.waits);
              ("grants_after_wait", i l.Lockmgr.Lock_mgr.grants_after_wait);
              ("instant_signals", i l.Lockmgr.Lock_mgr.instant_signals);
              ("give_ups", i l.Lockmgr.Lock_mgr.give_ups);
              ("cancelled_waits", i l.Lockmgr.Lock_mgr.cancelled_waits);
              ("deadlocks", i l.Lockmgr.Lock_mgr.deadlocks);
              ("releases", i l.Lockmgr.Lock_mgr.releases);
              ("scan_steps", i l.Lockmgr.Lock_mgr.scan_steps);
              ("instant_checks", i l.Lockmgr.Lock_mgr.instant_checks);
            ] );
      ( "wal",
        fun b ->
          J.obj b
            [
              ("records", i w.Wal.Log.records);
              ("bytes", i w.Wal.Log.bytes);
              ("forced", i w.Wal.Log.forced);
            ] );
      ("rows", fun b -> J.table_rows b table);
    ]

let write_json ~file ~experiments:exps =
  let module J = Obs.Json in
  let rev = try Sys.getenv "BENCH_REV" with Not_found -> "unknown" in
  let buf = Buffer.create 4096 in
  J.obj buf
    [
      ("schema_version", fun b -> J.int b json_schema_version);
      ("revision", fun b -> J.string b rev);
      ("generated_at_unix", fun b -> J.float b (Float.round (Unix.time ())));
      ( "experiments",
        fun b -> J.obj b (List.map (fun (name, e) -> (name, fun b -> emit_experiment b e)) exps)
      );
    ];
  Buffer.add_char buf '\n';
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nbench baseline -> %s (%d experiments)\n" file (List.length exps)

(* ------------------------------------------------------------------ *)

(* Canonical instrumented run: same shape as `reorg-cli workload`, fixed
   seed, so traces are comparable across commits. *)
let instrumented ~trace ~metrics =
  let registry = if metrics then Some (Obs.Registry.create ()) else None in
  let tracer = if trace <> None then Some (Obs.Trace.create ()) else None in
  let db, _ = Sim.Scenario.aged ~seed:7 ~n:1500 ~f1:0.3 () in
  let { Sim.Scenario.ctx; report; _ } =
    Sim.Scenario.run_reorg { Sim.Scenario.default with registry; tracer; users = 4 } db
  in
  Format.printf "report: %a@." Reorg.Driver.pp_report report;
  Format.printf "metrics: %a@." Reorg.Metrics.pp ctx.Reorg.Ctx.metrics;
  (match (trace, tracer) with
  | Some file, Some tr ->
    Obs.Trace.write_chrome tr file;
    Printf.printf "trace: %d events -> %s (chrome://tracing or ui.perfetto.dev)\n"
      (Obs.Trace.event_count tr) file
  | _ -> ());
  match registry with Some reg -> print_string (Obs.Registry.dump reg) | None -> ()

let run_experiment (name, title, f) =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" name title;
  Printf.printf "================================================================\n%!";
  let table = f () in
  Util.Table.print table;
  print_newline ();
  table

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Strip the observability flags; what remains are experiment targets. *)
  let rec split ~trace ~metrics ~json ~rev_targets = function
    | [] -> (trace, metrics, json, List.rev rev_targets)
    | "--metrics" :: rest -> split ~trace ~metrics:true ~json ~rev_targets rest
    | "--trace" :: file :: rest -> split ~trace:(Some file) ~metrics ~json ~rev_targets rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
      split ~trace:(Some (String.sub a 8 (String.length a - 8))) ~metrics ~json ~rev_targets rest
    | "--json" :: file :: rest -> split ~trace ~metrics ~json:(Some file) ~rev_targets rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--json=" ->
      split ~trace ~metrics ~json:(Some (String.sub a 7 (String.length a - 7))) ~rev_targets rest
    | a :: rest -> split ~trace ~metrics ~json ~rev_targets:(a :: rev_targets) rest
  in
  let trace, metrics, json, args =
    split ~trace:None ~metrics:false ~json:None ~rev_targets:[] args
  in
  if trace <> None || metrics then instrumented ~trace ~metrics;
  let targets =
    if args = [] then
      if (trace <> None || metrics) && json = None then []
      else List.map (fun (n, _, _) -> n) experiments
    else args
  in
  let known = List.map (fun (n, _, _) -> n) experiments in
  (match List.filter (fun t -> not (List.mem t known)) targets with
  | [] -> ()
  | unknown ->
    List.iter (fun t -> Printf.eprintf "unknown target %S\n" t) unknown;
    Printf.eprintf "known: %s\n" (String.concat " " known);
    exit 2);
  let exp_samples = ref [] in
  List.iter
    (fun target ->
      let ((name, _, _) as e) = List.find (fun (n, _, _) -> n = target) experiments in
      if json = None then ignore (run_experiment e : Util.Table.t)
      else begin
        (* Same console output, but the run happens under the Probe
           collector and a wall clock, feeding the JSON baseline. *)
        let t0 = Unix.gettimeofday () in
        let table, sample = Sim.Probe.with_collector (fun () -> run_experiment e) in
        let wall = Unix.gettimeofday () -. t0 in
        exp_samples := (name, (wall, sample, table)) :: !exp_samples
      end)
    targets;
  match json with
  | Some file -> write_json ~file ~experiments:(List.rev !exp_samples)
  | None -> ()
