(* Protocol-model tests: the state-machine DSL itself, conformance of real
   executions (clean workload, torture crash sweeps, sharded sweeps), the
   mutation self-tests, and the deterministic deadlock-victim regression. *)

module Machine = Model.Machine
module Checker = Model.Checker
module Prot = Reorg.Prot
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr

(* ------------------------------------------------------------------ *)
(* The DSL                                                             *)
(* ------------------------------------------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

type ev = Inc | Dec | Stop

let counter_def : (int, ev) Machine.def =
  {
    Machine.d_name = "counter";
    d_initial = 0;
    d_pp_state = string_of_int;
    d_pp_event = (function Inc -> "inc" | Dec -> "dec" | Stop -> "stop");
    d_rules =
      [
        Machine.rule "inc"
          ~applies:(fun _ ev -> ev = Inc)
          ~guards:[ ("below-three", fun st _ -> st < 3) ]
          ~next:(fun st _ -> st + 1);
        Machine.rule "dec"
          ~applies:(fun _ ev -> ev = Dec)
          ~guards:[ ("positive", fun st _ -> st > 0) ]
          ~next:(fun st _ -> st - 1);
      ];
    d_invariants = [ ("even-after-stop", fun _ -> true) ];
    d_accepting = (fun st -> st = 0);
  }

let collecting () =
  let vs = ref [] in
  ((fun v -> vs := v :: !vs), fun () -> List.rev !vs)

let test_dsl_basic () =
  let sink, got = collecting () in
  let m = Machine.create counter_def ~sink in
  Machine.step m ~track:"a" Inc;
  Machine.step m ~track:"a" Dec;
  Alcotest.(check int) "no violations" 0 (List.length (got ()));
  Alcotest.(check int) "one track" 1 (Machine.track_count m);
  Alcotest.(check int) "two events" 2 (Machine.events m);
  Machine.finalize m;
  Alcotest.(check int) "accepting at finalize" 0 (List.length (got ()))

let test_dsl_guard_violation () =
  let sink, got = collecting () in
  let m = Machine.create counter_def ~sink in
  Machine.step m ~track:"a" Dec;
  (match got () with
  | [ v ] ->
    Alcotest.(check string) "machine" "counter" v.Machine.v_machine;
    Alcotest.(check string) "track" "a" v.Machine.v_track;
    Alcotest.(check bool) "names the guard" true
      (String.length v.Machine.v_reason > 0
      && contains ~affix:"positive" v.Machine.v_reason)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Poisoned: later events on the track are counted but not re-judged. *)
  Machine.step m ~track:"a" Dec;
  Machine.step m ~track:"a" Stop;
  Alcotest.(check int) "still one violation" 1 (List.length (got ()));
  (* Other tracks are unaffected. *)
  Machine.step m ~track:"b" Inc;
  Alcotest.(check int) "other track clean" 1 (List.length (got ()))

let test_dsl_no_rule () =
  let sink, got = collecting () in
  let m = Machine.create counter_def ~sink in
  Machine.step m ~track:"a" Stop;
  match got () with
  | [ v ] ->
    Alcotest.(check bool) "reports no-transition" true
      (contains ~affix:"no transition" v.Machine.v_reason)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_dsl_history_and_report () =
  let sink, got = collecting () in
  let m = Machine.create counter_def ~sink in
  Machine.step m ~track:"a" Inc;
  Machine.step m ~track:"a" Inc;
  Machine.step m ~track:"a" Inc;
  Machine.step m ~track:"a" Inc;
  (* fourth inc trips below-three *)
  match got () with
  | [ v ] ->
    Alcotest.(check int) "history holds the prior steps" 3 (List.length v.Machine.v_history);
    let r = Machine.violation_to_string v in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "report mentions %S" needle)
          true
          (contains ~affix:needle r))
      [ "counter"; "below-three"; "inc"; "history" ]
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_dsl_finalize_and_reset () =
  let sink, got = collecting () in
  let m = Machine.create counter_def ~sink in
  Machine.step m ~track:"a" Inc;
  Machine.finalize m;
  (match got () with
  | [ v ] ->
    Alcotest.(check bool) "non-accepting reported" true
      (contains ~affix:"non-accepting" v.Machine.v_reason)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  let sink2, got2 = collecting () in
  let m2 = Machine.create counter_def ~sink:sink2 in
  Machine.step m2 ~track:"a" Inc;
  Machine.reset m2;
  Machine.finalize m2;
  Alcotest.(check int) "reset drops tracks" 0 (List.length (got2 ()));
  Alcotest.(check int) "track count zero" 0 (Machine.track_count m2)

(* ------------------------------------------------------------------ *)
(* Checker on synthetic event streams                                  *)
(* ------------------------------------------------------------------ *)

let test_checker_rejects_orphan_move () =
  let c = Checker.create () in
  Checker.feed c ~shard:0
    (Prot.Unit_move { actor = 9; unit_id = 4; org = 10; dest = 11; lsn = 5 });
  Alcotest.(check bool) "orphan MOVE rejected" false (Checker.ok c);
  match Checker.first_violation c with
  | Some v ->
    Alcotest.(check string) "unit machine" "unit-lifecycle" v.Machine.v_machine
  | None -> Alcotest.fail "no violation recorded"

let test_checker_rejects_regressing_lsn () =
  let c = Checker.create () in
  let ev l =
    Prot.Unit_modify { actor = 9; unit_id = 4; base = 3; lsn = l }
  in
  Checker.feed c ~shard:0
    (Prot.Unit_begin
       { actor = 9; unit_id = 4; kind = Wal.Record.Compact; bases = [ 3 ]; leaves = [ 10 ]; lsn = 6 });
  Checker.feed c ~shard:0 (ev 7);
  Checker.feed c ~shard:0 (ev 7);
  Alcotest.(check bool) "stale LSN rejected" false (Checker.ok c)

let test_checker_rejects_double_switch () =
  let c = Checker.create () in
  let h = Checker.feed c ~shard:0 in
  h (Prot.Pass3_start { actor = 1; mode = Prot.Fresh; ck = min_int; lambda = false });
  h (Prot.Scan_done { actor = 1 });
  h (Prot.Side_locked { actor = 1 });
  h
    (Prot.Switch_logged
       { actor = 1; old_root = 2; new_root = 3; old_name = 0; new_name = 1; backlog = 0; lsn = 50 });
  Alcotest.(check bool) "protocol-respecting switch ok" true (Checker.ok c);
  h
    (Prot.Switch_logged
       { actor = 1; old_root = 3; new_root = 4; old_name = 1; new_name = 2; backlog = 0; lsn = 60 });
  Alcotest.(check bool) "second switch without drain rejected" false (Checker.ok c)

let test_checker_rejects_backlogged_switch () =
  let c = Checker.create () in
  let h = Checker.feed c ~shard:0 in
  h (Prot.Pass3_start { actor = 1; mode = Prot.Fresh; ck = min_int; lambda = false });
  h (Prot.Scan_done { actor = 1 });
  h (Prot.Side_locked { actor = 1 });
  h
    (Prot.Switch_logged
       { actor = 1; old_root = 2; new_root = 3; old_name = 0; new_name = 1; backlog = 2; lsn = 50 });
  Alcotest.(check bool) "switch with side-file backlog rejected" false (Checker.ok c)

(* The olc oracle runs in the checker's own handler: an optimistic read
   emitted with the wrong answer is judged against a fresh descent of the
   store's tree right there. *)
let test_checker_judges_olc_reads () =
  let db = Sim.Db.load ~fill:0.7 (List.init 50 (fun i -> (2 * i, Sim.Db.payload_for (2 * i)))) in
  let c = Checker.create () in
  Checker.attach c ~shard:0 db;
  let read key result =
    Obs.Bus.emit db.Sim.Db.bus Btree.Access.topic
      (Btree.Access.Olc_read { leaf = Btree.Tree.find_leaf db.Sim.Db.tree key; key; result })
  in
  read 10 (Some (Sim.Db.payload_for 10));
  read 11 None;
  Alcotest.(check bool) "right answers pass" true (Checker.ok c);
  read 12 (Some "stale");
  match Checker.first_violation c with
  | Some v -> Alcotest.(check string) "olc machine objects" "olc-read" v.Machine.v_machine
  | None -> Alcotest.fail "a wrong optimistic read went unnoticed"

(* ------------------------------------------------------------------ *)
(* Conformance of real executions                                      *)
(* ------------------------------------------------------------------ *)

let test_clean_workload () =
  let s = Sim.Conformance.workload ~seed:11 () in
  if not (Sim.Conformance.ok s) then Alcotest.fail (Sim.Conformance.to_string s);
  Alcotest.(check bool) "saw events" true (s.Sim.Conformance.events > 0);
  Alcotest.(check bool) "saw tracks" true (s.Sim.Conformance.tracks > 0)

(* A sweep's track count spans all its cycles, not just the last one
   (every cycle and crash drops the live tracks). *)
let test_torture_conformance () =
  let s = Sim.Conformance.torture ~n:60 ~leaf_pages:64 ~seed:7 ~stride:13 ~users:2 () in
  if not (Sim.Conformance.ok s) then Alcotest.fail (Sim.Conformance.to_string s);
  Alcotest.(check bool) "saw tracks" true (s.Sim.Conformance.tracks > 0)

let test_shard_torture_conformance () =
  let s = Sim.Conformance.shard_torture ~n:90 ~seed:7 ~stride:31 () in
  if not (Sim.Conformance.ok s) then Alcotest.fail (Sim.Conformance.to_string s);
  Alcotest.(check bool) "saw tracks" true (s.Sim.Conformance.tracks > 0)

(* ------------------------------------------------------------------ *)
(* Mutation self-tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_mutation_table1 () =
  let s = Sim.Conformance.mutate_table1 () in
  Alcotest.(check bool) "broken Table-1 cell is caught" false (Sim.Conformance.ok s);
  match s.Sim.Conformance.violations with
  | v :: _ ->
    Alcotest.(check string) "lock machine objects" "table1-locks" v.Machine.v_machine
  | [] -> Alcotest.fail "no violation"

let test_mutation_switch () =
  let s = Sim.Conformance.mutate_switch () in
  Alcotest.(check bool) "broken CK advance is caught" false (Sim.Conformance.ok s);
  match s.Sim.Conformance.violations with
  | v :: _ ->
    Alcotest.(check string) "switch machine objects" "switch-drain" v.Machine.v_machine;
    Alcotest.(check bool) "names the Get_Current guard" true
      (contains ~affix:"ck-advances" (Machine.violation_to_string v))
  | [] -> Alcotest.fail "no violation"

(* The clean runs above double as the mutation tests' controls: same
   workloads, flags off, zero violations. *)

(* ------------------------------------------------------------------ *)
(* Deterministic deadlock victims                                      *)
(* ------------------------------------------------------------------ *)

(* One seeded contended run; returns the victim sequence (owner, resource,
   forced flag — in decision order) and the lock manager's give_ups.  The
   users read with the paper's locked protocol, whose S locks are part of
   the contention that makes the victims. *)
let victim_trace ~seed =
  let db, _ = Sim.Scenario.aged ~page_size:512 ~leaf_pages:256 ~seed ~n:250 ~f1:0.3 () in
  let victims = ref [] in
  Obs.Bus.subscribe db.Sim.Db.bus [ Lock_mgr.topic ] (function
    | Lock_mgr.Ev_victim { owner; res; forced; _ } ->
      victims := (owner, Resource.to_string res, forced) :: !victims
    | _ -> ());
  ignore
    (Sim.Scenario.run_reorg
       { Sim.Scenario.default with config = Reorg.Config.paper; users = 4;
         user_mix = Workload.Mix.update_heavy; user_ops = 300; seed }
       db);
  let stats = Lock_mgr.stats db.Sim.Db.locks in
  (List.rev !victims, stats.Lock_mgr.give_ups, stats.Lock_mgr.deadlocks)

let test_victim_determinism () =
  List.iter
    (fun seed ->
      let v1, g1, d1 = victim_trace ~seed in
      let v2, g2, d2 = victim_trace ~seed in
      Alcotest.(check bool) (Printf.sprintf "seed %d: some victims" seed) true (v1 <> []);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: victim count stable" seed)
        (List.length v1) (List.length v2);
      List.iter2
        (fun (o1, r1, f1) (o2, r2, f2) ->
          if o1 <> o2 || r1 <> r2 || f1 <> f2 then
            Alcotest.failf "seed %d: victim diverged (%d,%s,%b) vs (%d,%s,%b)" seed o1 r1 f1
              o2 r2 f2)
        v1 v2;
      Alcotest.(check int) (Printf.sprintf "seed %d: give_ups stable" seed) g1 g2;
      Alcotest.(check int) (Printf.sprintf "seed %d: deadlocks stable" seed) d1 d2)
    [ 11; 23; 42 ]

let () =
  Alcotest.run "model"
    [
      ( "dsl",
        [
          Alcotest.test_case "steps and accepts" `Quick test_dsl_basic;
          Alcotest.test_case "guard violation" `Quick test_dsl_guard_violation;
          Alcotest.test_case "no-rule violation" `Quick test_dsl_no_rule;
          Alcotest.test_case "history in report" `Quick test_dsl_history_and_report;
          Alcotest.test_case "finalize and reset" `Quick test_dsl_finalize_and_reset;
        ] );
      ( "checker",
        [
          Alcotest.test_case "orphan move" `Quick test_checker_rejects_orphan_move;
          Alcotest.test_case "stale lsn" `Quick test_checker_rejects_regressing_lsn;
          Alcotest.test_case "double switch" `Quick test_checker_rejects_double_switch;
          Alcotest.test_case "backlogged switch" `Quick test_checker_rejects_backlogged_switch;
          Alcotest.test_case "olc oracle in the handler" `Quick test_checker_judges_olc_reads;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "clean workload" `Quick test_clean_workload;
          Alcotest.test_case "torture sweep" `Quick test_torture_conformance;
          Alcotest.test_case "shard torture sweep" `Quick test_shard_torture_conformance;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "table1 cell" `Quick test_mutation_table1;
          Alcotest.test_case "switch guard" `Quick test_mutation_switch;
        ] );
      ( "determinism",
        [ Alcotest.test_case "victims across 3 seeds" `Quick test_victim_determinism ] );
    ]
