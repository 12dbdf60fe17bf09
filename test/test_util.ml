(* Utility library tests: PRNG determinism and distributions, stats, tables. *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Util.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Util.Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create 9 in
  let b = Util.Rng.split a in
  let xa = Util.Rng.bits64 a and xb = Util.Rng.bits64 b in
  Alcotest.(check bool) "different streams" true (xa <> xb)

let test_permutation () =
  let r = Util.Rng.create 3 in
  let p = Util.Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_zipf_skew () =
  let r = Util.Rng.create 5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let v = Util.Rng.zipf r ~n:100 ~theta:0.9 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must dominate the tail under strong skew. *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 10 * counts.(99))

let test_stats () =
  let s = Util.Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Util.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Util.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Util.Stats.p50

let test_stats_empty () =
  (* The empty sample yields the all-zero summary rather than raising, so an
     empty histogram bucket never crashes a metrics dump. *)
  let s = Util.Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Util.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.Util.Stats.mean;
  Alcotest.(check (float 1e-9)) "p99" 0.0 s.Util.Stats.p99;
  Alcotest.(check bool) "opt none" true (Util.Stats.summarize_opt [||] = None);
  Alcotest.(check bool) "opt some" true (Util.Stats.summarize_opt [| 1.0 |] <> None)

let test_percentile_extremes () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p1" 1.0 (Util.Stats.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Util.Stats.percentile xs 100.0)

module Table = Util.Table

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ Table.text "x"; Table.num 1 ];
  Table.add_row t [ Table.text "longer"; Table.num 22 ];
  let s = Table.render t in
  Alcotest.(check bool) "contains rows" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "longer | 22"));
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ Table.text "only-one" ])

(* Each constructor prints exactly what the string formatter it replaced
   printed, and keeps the raw value next to the text. *)
let test_formats () =
  let check name text value (c : Table.cell) =
    Alcotest.(check string) (name ^ " text") text c.Table.text;
    Alcotest.(check bool) (name ^ " value") true (c.Table.value = value)
  in
  check "int commas" "1,234,567" (Table.Int 1234567) (Table.int 1234567);
  check "neg int" "-1,000" (Table.Int (-1000)) (Table.int (-1000));
  check "plain int" "1234567" (Table.Int 1234567) (Table.num 1234567);
  check "pct" "50.0%" (Table.Float 0.5) (Table.pct 0.5);
  check "ratio" "3.10x" (Table.Float 3.1) (Table.ratio 3.1);
  check "ratio nan" "-" Table.Null (Table.ratio nan);
  check "float" "0.25" (Table.Float 0.25) (Table.float 0.25);
  check "float digits" "2.0" (Table.Float 2.0) (Table.float ~digits:1 2.0);
  check "float nan" "-" Table.Null (Table.float nan);
  check "bytes" "2.0 KiB" (Table.Int 2048) (Table.bytes 2048);
  check "text" "paper" (Table.Text "paper") (Table.text "paper");
  check "none" "-" Table.Null Table.none

let test_rows () =
  let t = Table.create [ ("arm", Table.Left); ("ratio", Table.Right) ] in
  Table.add_row t [ Table.text "sync"; Table.ratio 1.0 ];
  Table.add_rule t;
  Table.add_row t [ Table.text "nan"; Table.ratio nan ];
  Table.add_note t "a note is not a row";
  Alcotest.(check bool) "rules and notes skipped, header-keyed" true
    (Table.rows t
    = [
        [ ("arm", Table.Text "sync"); ("ratio", Table.Float 1.0) ];
        [ ("arm", Table.Text "nan"); ("ratio", Table.Null) ];
      ]);
  let buf = Buffer.create 64 in
  Obs.Json.table_rows buf t;
  Alcotest.(check string) "nan cell is JSON null"
    {|[{"arm":"sync","ratio":1},{"arm":"nan","ratio":null}]|} (Buffer.contents buf)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentiles" `Quick test_percentile_extremes;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_formats;
          Alcotest.test_case "rows" `Quick test_rows;
        ] );
    ]
