(* The benchmark's own rules: the tail-sample rule for percentiles, metric
   names, and agreement between what a run emits and what BENCHMARK.json
   declares.  Each workload runs one round on a small tree. *)

open Perfbench

let spec = Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)

let declared section =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member section spec))

let ascending n = Array.init n float

let test_tail_rule () =
  let p xs q = Stat.percentile (ascending xs) q in
  Alcotest.(check (option (float 0.0))) "p99 of 999 samples has 9 beyond it" None (p 999 99.0);
  Alcotest.(check (option (float 0.0))) "p99 of 1000 samples" (Some 989.0) (p 1000 99.0);
  Alcotest.(check (option (float 0.0))) "p50 of 19 samples" None (p 19 50.0);
  Alcotest.(check (option (float 0.0))) "p50 of 20 samples" (Some 9.0) (p 20 50.0);
  Alcotest.(check int) "samples a p99 needs" 1000 (Stat.needed 99.0);
  Alcotest.(check int) "samples a p50 needs" 20 (Stat.needed 50.0)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stat.quartiles (Array.init 10 (fun i -> float (10 - i))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_names () =
  List.iter
    (fun (name, _) -> Alcotest.(check bool) ("valid name " ^ name) true (valid_name name))
    (declared "end_to_end" @ declared "per_layer");
  Alcotest.(check (list string))
    "workloads" (List.map (fun (w : Work.t) -> w.name) Work.all)
    (List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec)))

let small (w : Work.t) =
  let tree =
    match w.tree with
    | Work.Aged a -> Work.Aged { a with records = 600 }
    | Work.Loaded l -> Work.Loaded { l with records = 2000; frames = 512 }
  in
  { w with tree; batch = min w.batch 400 }

let test_emitted w () =
  List.iter
    (fun (trace, section) ->
      let o = Work.run (small w) ~seed:3 ~seconds:0.0 ~trace in
      Alcotest.(check (list string)) "checks pass" [] o.errors;
      Alcotest.(check int) "no failed operations" 0 o.failed;
      let sort = List.sort compare in
      Alcotest.(check (list (pair string string)))
        (section ^ " names and units match BENCHMARK.json")
        (sort (declared section))
        (sort (List.map (fun (m : Work.metric) -> (m.name, m.unit)) o.metrics)))
    [ (false, "end_to_end"); (true, "per_layer") ]

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as python computes them" `Quick test_quartiles;
          Alcotest.test_case "metric and workload names" `Quick test_names;
        ] );
      ( "workloads",
        List.map (fun (w : Work.t) -> Alcotest.test_case w.name `Quick (test_emitted w)) Work.all );
    ]
