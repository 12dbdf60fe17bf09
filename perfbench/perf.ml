(* The benchmark's command line.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]
     perf.exe compare A.out... -- B.out...

   A run prints two JSON lines: the run's description (workload, seed,
   revision, machine, configuration, per-kind latency with sample counts),
   then the result.  It exits 1 when a check fails and 2 on bad usage.
   [compare] reads saved run outputs and compares the two sides, metric by
   metric, against the bounds in BENCHMARK.json. *)

open Perfbench

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

let rec flags acc = function
  | [] -> List.rev acc
  | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
  | x :: _ -> die "unexpected argument %s" x

let run_cmd args =
  let fl = flags [] args in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-file" ]) then
        die "unknown flag %s" k)
    fl;
  let int k default =
    match List.assoc_opt k fl with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s takes an integer" k)
  in
  let w =
    match List.assoc_opt "--workload" fl with
    | None -> die "--workload is required"
    | Some name -> (
      match Work.find name with
      | Some w -> w
      | None ->
        die "unknown workload %s; the workloads are %s" name
          (String.concat ", " (List.map (fun (w : Work.t) -> w.name) Work.all)))
  in
  let seed = int "--seed" 7 and seconds = int "--seconds" 10 in
  let trace =
    match int "--trace" 0 with 0 -> false | 1 -> true | _ -> die "--trace takes 0 or 1"
  in
  let o = Work.run w ~seed ~seconds:(float seconds) ~trace in
  let missing =
    List.filter_map (fun (m : Work.metric) -> if m.value = None then Some m.name else None) o.metrics
  in
  List.iter (fun e -> prerr_endline ("perf: check failed: " ^ e)) o.errors;
  List.iter
    (fun name -> prerr_endline ("perf: too few samples to report " ^ name ^ "; raise --seconds"))
    missing;
  let num x = Json.Num (float x) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str w.name);
            ("seed", num seed);
            ("seconds", num seconds);
            ("trace", num (Bool.to_int trace));
            ("rev", Json.Str (Option.value ~default:"unknown" (Sys.getenv_opt "BENCH_REV")));
            ("nproc", num (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("config", Work.config w);
            ("rounds", num o.rounds);
            ( "samples",
              Json.Obj
                (List.filter_map
                   (fun (m : Work.metric) ->
                     if m.samples = [] then None
                     else Some (m.name, Json.List (List.map num m.samples)))
                   o.metrics) );
            ("latency", o.latency);
          ]));
  let correct = o.errors = [] && missing = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num o.attempted);
            ("failed", num o.failed);
            ( "metrics",
              Json.Obj
                (List.filter_map
                   (fun (m : Work.metric) ->
                     Option.map
                       (fun v -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]))
                       m.value)
                   o.metrics) );
          ]));
  Option.iter
    (fun tr ->
      let file =
        match List.assoc_opt "--trace-file" fl with
        | Some f -> f
        | None ->
          if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
          Printf.sprintf ".bench_out/trace-%s-%d.json" w.name seed
      in
      Obs.Trace.write_chrome tr file;
      prerr_endline ("perf: wrote " ^ file))
    o.trace;
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* A saved run output as (workload, metric, value) rows: the workload and
   trace mode from the description line, the values from the result line. *)
let read_output file =
  let lines =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l -> try Some (Json.parse l) with Json.Error _ -> None)
  in
  let has k = function Json.Obj kvs -> List.mem_assoc k kvs | _ -> false in
  match (List.find_opt (has "workload") lines, List.rev lines) with
  | Some info, result :: _ when has "metrics" result -> (
    let workload =
      Json.to_str (Json.member "workload" info)
      ^ if Json.to_num (Json.member "trace" info) = 1.0 then " (traced)" else ""
    in
    match Json.member "metrics" result with
    | Json.Obj kvs -> List.map (fun (name, m) -> (workload, name, Json.to_num (Json.member "value" m))) kvs
    | _ -> [])
  | _ -> die "%s: not a saved run output" file

let compare_cmd args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare needs A files, then --, then B files"
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then die "compare needs files on both sides of --";
  let spec =
    try Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
    with Sys_error e | Json.Error e -> die "%s" e
  in
  let declared =
    List.concat_map
      (fun section ->
        List.map
          (fun m ->
            let bound = match m with Json.Obj kvs -> List.assoc_opt "bound" kvs | _ -> None in
            ( Json.to_str (Json.member "name" m),
              (Json.to_str (Json.member "better" m), Option.map Json.to_num bound) ))
          (Json.to_list (Json.member section spec)))
      [ "end_to_end"; "per_layer" ]
  in
  let a = List.concat_map read_output a_files and b = List.concat_map read_output b_files in
  let values rows key = Array.of_list (List.filter_map (fun (w, n, v) -> if (w, n) = key then Some v else None) rows) in
  let keys = List.fold_left (fun acc (w, n, _) -> if List.mem (w, n) acc then acc else acc @ [ (w, n) ]) [] a in
  let worse = ref 0 in
  Printf.printf "%-24s %-28s %32s %32s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun ((workload, name) as key) ->
      let va = values a key and vb = values b key in
      if Array.length vb = 0 then Printf.printf "%-24s %-28s only on side A\n" workload name
      else begin
        let summary xs =
          let q1, q3 = Stat.quartiles xs in
          (Stat.median xs, q1, q3)
        in
        let ma, qa1, qa3 = summary va and mb, qb1, qb3 = summary vb in
        let change = (mb -. ma) /. Float.abs ma in
        let verdict =
          match List.assoc_opt name declared with
          | Some (better, Some bound) ->
            let spread m q1 q3 = (q3 -. q1) /. Float.abs m in
            let gain = if better = "higher" then change else -.change in
            if Float.is_nan change || spread ma qa1 qa3 > bound || spread mb qb1 qb3 > bound then
              "unresolved"
            else if gain < -.bound then begin
              incr worse;
              "WORSE"
            end
            else if gain > bound then "better"
            else "same"
          | _ -> "-"
        in
        Printf.printf "%-24s %-28s %12.6g [%.6g, %.6g] %12.6g [%.6g, %.6g] %+7.2f%%  %s\n" workload name ma
          qa1 qa3 mb qb1 qb3 (100.0 *. change) verdict
      end)
    keys;
  exit (if !worse > 0 then 1 else 0)

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]\n\
  \       perf.exe compare A.out... -- B.out...\n"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_cmd rest
  | [ ("-h" | "--help") ] -> print_string usage
  | [] ->
    prerr_string usage;
    exit 2
  | args -> run_cmd args
