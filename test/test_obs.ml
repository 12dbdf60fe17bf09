(* Observability tests: registry, histograms, span nesting, and the golden
   determinism property — same seed, same Chrome-trace bytes. *)

module Registry = Obs.Registry
module Counter = Obs.Counter
module Histogram = Obs.Histogram
module Trace = Obs.Trace

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_counters () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a.hits" in
  Counter.incr c;
  Counter.incr c ~by:4;
  Alcotest.(check int) "value" 5 (Counter.get c);
  (* Find-or-create returns the same cell. *)
  let c' = Registry.counter reg "a.hits" in
  Counter.incr c';
  Alcotest.(check int) "shared cell" 6 (Counter.get c);
  Alcotest.(check (option int)) "value lookup" (Some 6) (Registry.value reg "a.hits");
  Alcotest.(check (option int)) "missing" None (Registry.value reg "nope");
  (* Kind mismatch is an error. *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry.histogram: a.hits is not a histogram") (fun () ->
      ignore (Registry.histogram reg "a.hits"));
  Registry.reset reg;
  Alcotest.(check (option int)) "reset" (Some 0) (Registry.value reg "a.hits")

let test_registry_gauges_and_order () =
  let reg = Registry.create () in
  let live = ref 3 in
  Registry.gauge reg "z.live" (fun () -> !live);
  ignore (Registry.counter reg "b.count");
  ignore (Registry.counter reg "a.count");
  Alcotest.(check (list string)) "sorted dump order"
    [ "a.count"; "b.count"; "z.live" ]
    (List.map fst (Registry.sorted reg));
  Alcotest.(check (option int)) "gauge reads live state" (Some 3) (Registry.value reg "z.live");
  live := 9;
  Alcotest.(check (option int)) "gauge re-reads" (Some 9) (Registry.value reg "z.live");
  (* Gauges survive reset untouched (they have no stored state). *)
  Registry.reset reg;
  Alcotest.(check (option int)) "gauge after reset" (Some 9) (Registry.value reg "z.live");
  (* Re-registration by name is idempotent, not an error. *)
  Registry.gauge reg "z.live" (fun () -> 42);
  Alcotest.(check (option int)) "replaced" (Some 42) (Registry.value reg "z.live");
  Alcotest.(check int) "cardinal" 3 (Registry.cardinal reg)

let test_histogram_summary () =
  let h = Histogram.make "test.h" in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  (* Empty histograms summarize to the zero summary instead of raising. *)
  let s0 = Histogram.summary h in
  Alcotest.(check int) "empty summary count" 0 s0.Util.Stats.count;
  Alcotest.(check (float 0.0)) "empty summary mean" 0.0 s0.Util.Stats.mean;
  List.iter (fun v -> Histogram.observe_int h v) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  let s = Histogram.summary h in
  Alcotest.(check int) "count" 10 s.Util.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 5.5 s.Util.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 10.0 s.Util.Stats.max;
  Alcotest.(check (float 1e-9)) "total" 55.0 (Histogram.total h);
  Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Histogram.count h)

let test_registry_json () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg "a") ~by:7;
  Registry.gauge reg "b" (fun () -> 2);
  let j = Registry.to_json reg in
  Alcotest.(check string) "json" "{\"a\":7,\"b\":2}" j

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_span_nesting () =
  let time = ref 0 in
  let tr = Trace.create ~clock:(fun () -> !time) () in
  Trace.begin_span tr ~cat:"t" "outer";
  time := 2;
  Trace.begin_span tr ~cat:"t" "inner";
  time := 5;
  Trace.end_span tr ();
  time := 9;
  Trace.end_span tr ~args:[ ("outcome", Trace.Str "ok") ] ();
  Alcotest.(check int) "two spans" 2 (Trace.event_count tr);
  let json = Trace.to_chrome_json tr in
  (* Inner closes first: ts=2 dur=3; outer spans the whole interval. *)
  Alcotest.(check bool) "inner interval" true
    (contains ~needle:"\"name\":\"inner\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2,\"dur\":3" json);
  Alcotest.(check bool) "outer interval" true
    (contains ~needle:"\"name\":\"outer\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":9" json);
  Alcotest.(check bool) "end args appended" true
    (contains ~needle:"\"outcome\":\"ok\"" json);
  Alcotest.check_raises "unbalanced end"
    (Invalid_argument "Trace.end_span: no open span for tid") (fun () ->
      Trace.end_span tr ())

let test_with_span_on_exception () =
  let time = ref 0 in
  let tr = Trace.create ~clock:(fun () -> !time) () in
  (try
     Trace.with_span tr ~cat:"t" "boom" (fun () ->
         time := 4;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite exception" 1 (Trace.event_count tr);
  Alcotest.(check int) "named" 1 (Trace.count_named tr "boom")

(* ------------------------------------------------------------------ *)
(* Event bus                                                           *)
(* ------------------------------------------------------------------ *)

type Obs.Bus.event += Ping of int

let test_bus_topics () =
  let bus = Obs.Bus.create () in
  let t1 = Obs.Bus.topic () and t2 = Obs.Bus.topic () and t3 = Obs.Bus.topic () in
  let got = ref [] in
  let sub name = function Ping n -> got := (name, n) :: !got | _ -> () in
  Obs.Bus.subscribe bus [ t1 ] (sub "a");
  Obs.Bus.subscribe bus [ t1; t2 ] (sub "b");
  Alcotest.(check (list bool)) "wants" [ true; true; false ]
    (List.map (Obs.Bus.wants bus) [ t1; t2; t3 ]);
  Obs.Bus.emit bus t1 (Ping 1);
  Obs.Bus.emit bus t2 (Ping 2);
  Obs.Bus.emit bus t3 (Ping 3);
  Alcotest.(check (list (pair string int))) "per topic, in subscription order"
    [ ("a", 1); ("b", 1); ("b", 2) ] (List.rev !got)

let all_topics =
  [
    Lockmgr.Lock_mgr.topic;
    Transact.Lock_client.topic;
    Pager.Buffer_pool.topic;
    Pager.Buffer_pool.dirty_topic;
    Pager.Alloc.topic;
    Wal.Log.topic;
    Btree.Access.topic;
    Reorg.Prot.topic;
  ]

(* Two subscribers of one store, every topic, a seeded run with users: both
   see the very same events in the very same order. *)
let test_bus_two_subscribers () =
  let db, _ = Sim.Scenario.aged ~seed:11 ~n:400 ~f1:0.3 () in
  let first = ref [] and second = ref [] in
  Obs.Bus.subscribe db.Sim.Db.bus all_topics (fun ev -> first := ev :: !first);
  Obs.Bus.subscribe db.Sim.Db.bus all_topics (fun ev -> second := ev :: !second);
  ignore
    (Sim.Scenario.run_reorg
       { Sim.Scenario.default with users = 4; user_mix = Workload.Mix.update_heavy; user_ops = 200 }
       db);
  Alcotest.(check int) "same count" (List.length !first) (List.length !second);
  Alcotest.(check bool) "same events, same order" true (List.for_all2 ( == ) !first !second);
  let kinds =
    List.sort_uniq compare
      (List.map (fun ev -> Obj.Extension_constructor.(name (of_val ev))) !first)
  in
  Alcotest.(check bool) "every layer spoke" true (List.length kinds >= 12)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

(* One fixed-seed concurrent reorganization, fully instrumented. *)
let traced_run () =
  let db, _ = Sim.Scenario.aged ~seed:11 ~n:600 ~f1:0.3 () in
  let registry = Obs.Registry.create () in
  let tracer = Obs.Trace.create () in
  let r =
    Sim.Scenario.run_reorg
      { Sim.Scenario.default with registry = Some registry; tracer = Some tracer; users = 4;
        user_mix = Workload.Mix.update_heavy }
      db
  in
  (r.Sim.Scenario.ctx, registry, tracer)

let test_golden_trace_determinism () =
  let _, reg1, tr1 = traced_run () in
  let _, reg2, tr2 = traced_run () in
  Alcotest.(check string) "identical chrome JSON" (Trace.to_chrome_json tr1)
    (Trace.to_chrome_json tr2);
  Alcotest.(check string) "identical registry dump" (Registry.dump reg1) (Registry.dump reg2);
  Alcotest.(check string) "identical timeline" (Trace.to_timeline tr1) (Trace.to_timeline tr2)

(* The torture harness is many runs in one — dozens of rebuild/crash/recover
   cycles sharing a registry and tracer.  If any of them consulted hidden
   state (wall clock, global rng, hash order), the two passes here would
   diverge somewhere in thousands of events. *)
let tortured_run () =
  let registry = Obs.Registry.create () in
  let tracer = Obs.Trace.create () in
  let r = Sim.Torture.run ~registry ~tracer ~seed:23 ~stride:7 ~n:120 ~leaf_pages:64 () in
  (r, registry, tracer)

let test_golden_torture_determinism () =
  let r1, reg1, tr1 = tortured_run () in
  let r2, reg2, tr2 = tortured_run () in
  Alcotest.(check int) "same crash count" r1.Sim.Torture.crashes r2.Sim.Torture.crashes;
  Alcotest.(check bool) "faults actually injected" true
    (r1.Sim.Torture.torn_writes + r1.Sim.Torture.torn_tails > 0);
  Alcotest.(check string) "identical chrome JSON" (Trace.to_chrome_json tr1)
    (Trace.to_chrome_json tr2);
  Alcotest.(check string) "identical registry dump" (Registry.dump reg1) (Registry.dump reg2);
  (* The shared registry saw the fault and recovery layers, not just the
     usual reorganization counters. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (Registry.value reg1 name <> None))
    [ "fault.crashes"; "recovery.restarts"; "recovery.torn_pages" ]

let test_trace_covers_subsystems () =
  let ctx, reg, tr = traced_run () in
  let json = Trace.to_chrome_json tr in
  (* All three passes, per-unit spans, and lock waits show up. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "trace mentions %S" needle) true
        (contains ~needle json))
    [ "pass1"; "pass2"; "pass3"; "unit."; "lock.wait"; "reorganizer"; "user-0" ];
  (* The registry saw every layer. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (Registry.value reg name <> None))
    [
      "sched.dispatches";
      "lock.acquires";
      "pager.hits";
      "wal.records";
      "core.units";
    ];
  (* Registry counters agree with the Metrics accessors. *)
  Alcotest.(check (option int)) "core.units agrees"
    (Some (Reorg.Metrics.units ctx.Reorg.Ctx.metrics))
    (Registry.value reg "core.units");
  (* Chrome export parses as balanced JSON (cheap structural check). *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
      if c = '{' || c = '[' then incr depth
      else if c = '}' || c = ']' then decr depth;
      if !depth < !min_depth then min_depth := !depth)
    json;
  Alcotest.(check int) "balanced brackets" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let emit_float x =
  let buf = Buffer.create 32 in
  Obs.Json.float buf x;
  Buffer.contents buf

(* Adversarial floats: nothing non-finite may leak into the output (JSON has
   no nan/inf literals), and every finite value must round-trip exactly
   through its printed form. *)
let test_json_float_adversarial () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%h is null" x)
        "null" (emit_float x))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0 /. 0.0; 1.0 /. 0.0 ];
  let finite =
    [ 0.0; -0.0; 1.0; -1.0; 0.1; -0.1; 1.0 /. 3.0; 2.0 /. 3.0; 0.55; 0.30;
      1e-10; 1.5e-45; 4e-324 (* smallest subnormal *); Float.min_float;
      Float.max_float; 1e15; 1e15 -. 1.0; 1e15 +. 2.0; 123456789.0;
      9007199254740993.0 (* 2^53 + 1: not representable as itself *);
      3.141592653589793; 1e300; -2.2250738585072011e-308 ]
  in
  List.iter
    (fun x ->
      let s = emit_float x in
      Alcotest.(check bool)
        (Printf.sprintf "%h has no nan/inf text (%s)" x s)
        false
        (contains ~needle:"nan" s || contains ~needle:"inf" s);
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips via %s" x s)
        true
        (float_of_string s = x))
    finite;
  (* Integer-valued doubles print without an exponent or decimal point. *)
  Alcotest.(check string) "integral compact" "123456789" (emit_float 123456789.0);
  Alcotest.(check string) "zero" "0" (emit_float 0.0)

(* ------------------------------------------------------------------ *)
(* Sampler golden determinism                                          *)
(* ------------------------------------------------------------------ *)

(* Same seed, same sampled health series — byte-for-byte, including the
   counter events the sampler mirrors into the Chrome trace. *)
let sampled_health_run () =
  let db, _ = Sim.Scenario.thinned ~seed:9 ~n:900 ~survive:0.35 () in
  let tracer = Obs.Trace.create () in
  let sampler = Obs.Health.Sampler.create ~tracer db.Sim.Db.health in
  Obs.Health.Sampler.add_probe sampler "pool.flushes" (fun () ->
      (Pager.Buffer_pool.stats db.Sim.Db.pool).Pager.Buffer_pool.s_flushes);
  Obs.Health.watch db.Sim.Db.health ~name:"util<0.55" ~signal:Obs.Health.Utilization
    ~op:`Lt ~threshold:0.55 (fun _ -> ());
  ignore
    (Sim.Scenario.run_reorg
       { Sim.Scenario.default with tracer = Some tracer; sampler = Some sampler; sample_every = 20 }
       db);
  (Obs.Health.Sampler.snapshots sampler, tracer)

let test_sampler_golden_determinism () =
  let series1, tr1 = sampled_health_run () in
  let series2, tr2 = sampled_health_run () in
  Alcotest.(check bool) "series non-trivial" true (series1 <> []);
  Alcotest.(check bool) "identical sampled series" true (series1 = series2);
  Alcotest.(check string) "identical chrome JSON (incl. counter events)"
    (Trace.to_chrome_json tr1) (Trace.to_chrome_json tr2);
  (* The trace carries the sampler's counter rows and the watch fire. *)
  let json = Trace.to_chrome_json tr1 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "trace mentions %S" needle) true
        (contains ~needle json))
    [ "\"ph\":\"C\""; "tree-health"; "health.watch-fire" ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges and order" `Quick test_registry_gauges_and_order;
          Alcotest.test_case "histogram summaries" `Quick test_histogram_summary;
          Alcotest.test_case "json" `Quick test_registry_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "with_span on exception" `Quick test_with_span_on_exception;
        ] );
      ( "json",
        [ Alcotest.test_case "adversarial floats" `Quick test_json_float_adversarial ] );
      ( "bus",
        [
          Alcotest.test_case "topics and order" `Quick test_bus_topics;
          Alcotest.test_case "two subscribers, one order" `Quick test_bus_two_subscribers;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "golden determinism" `Quick test_golden_trace_determinism;
          Alcotest.test_case "golden torture determinism" `Quick test_golden_torture_determinism;
          Alcotest.test_case "subsystem coverage" `Quick test_trace_covers_subsystems;
          Alcotest.test_case "sampler golden determinism" `Quick
            test_sampler_golden_determinism;
        ] );
    ]
