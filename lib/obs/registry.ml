(* A registry of named metrics.  Subsystems either create counters and
   histograms through the registry (find-or-create by name) or attach ones
   they already own; gauges are closures evaluated at dump time, which lets
   a subsystem expose its existing internal tallies without restructuring
   them.  Dumps are deterministic: metrics are sorted by name. *)

type metric =
  | Counter of Counter.t
  | Gauge of (unit -> int)
  | Histogram of Histogram.t

type t = { tbl : (string, metric) Hashtbl.t; prefix : string }

let create () = { tbl = Hashtbl.create 64; prefix = "" }

(* A prefixed view shares the underlying table: registrations through the
   view land in the parent under [prefix ^ name].  Sharded assemblies wire
   shard [i]'s subsystems through [prefixed reg "shard<i>."] so one registry
   holds every shard's metrics side by side without name collisions. *)
let prefixed t prefix = { tbl = t.tbl; prefix = t.prefix ^ prefix }

let prefix t = t.prefix

(* Registration is idempotent by name: re-registering replaces, so wiring a
   database into the same registry twice (e.g. across a crash/restart pair)
   is harmless. *)
let attach_counter t c = Hashtbl.replace t.tbl (t.prefix ^ Counter.name c) (Counter c)
let attach_histogram t h = Hashtbl.replace t.tbl (t.prefix ^ Histogram.name h) (Histogram h)
let gauge t name fn = Hashtbl.replace t.tbl (t.prefix ^ name) (Gauge fn)

let counter t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Registry.counter: %s is not a counter" name)
  | None ->
    let c = Counter.make name in
    Hashtbl.replace t.tbl name (Counter c);
    c

let histogram t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Registry.histogram: %s is not a histogram" name)
  | None ->
    let h = Histogram.make name in
    Hashtbl.replace t.tbl name (Histogram h);
    h

let find t name = Hashtbl.find_opt t.tbl (t.prefix ^ name)

let value t name =
  match Hashtbl.find_opt t.tbl (t.prefix ^ name) with
  | Some (Counter c) -> Some (Counter.get c)
  | Some (Gauge fn) -> Some (fn ())
  | Some (Histogram h) -> Some (Histogram.count h)
  | None -> None

let sorted t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let cardinal t = Hashtbl.length t.tbl

(* Counters and histograms reset; gauges read live state and are left
   alone. *)
let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Counter.reset c
      | Histogram h -> Histogram.reset h
      | Gauge _ -> ())
    t.tbl

let dump t =
  let table =
    Util.Table.create ~title:"metrics"
      [ ("metric", Util.Table.Left); ("value", Util.Table.Right) ]
  in
  List.iter
    (fun (name, m) ->
      let value =
        match m with
        | Counter c -> Util.Table.int (Counter.get c)
        | Gauge fn -> Util.Table.int (fn ())
        | Histogram h ->
          Util.Table.text
            (if Histogram.count h = 0 then "n=0"
             else Format.asprintf "%a" Util.Stats.pp_summary (Histogram.summary h))
      in
      Util.Table.add_row table [ Util.Table.text name; value ])
    (sorted t);
  Util.Table.render table

let to_json t =
  let buf = Buffer.create 1024 in
  let emit_summary h buf =
    let s = Histogram.summary h in
    Json.obj buf
      [
        ("count", fun b -> Json.int b s.Util.Stats.count);
        ("mean", fun b -> Json.float b s.Util.Stats.mean);
        ("stddev", fun b -> Json.float b s.Util.Stats.stddev);
        ("min", fun b -> Json.float b s.Util.Stats.min);
        ("max", fun b -> Json.float b s.Util.Stats.max);
        ("p50", fun b -> Json.float b s.Util.Stats.p50);
        ("p90", fun b -> Json.float b s.Util.Stats.p90);
        ("p99", fun b -> Json.float b s.Util.Stats.p99);
      ]
  in
  let fields =
    List.map
      (fun (name, m) ->
        ( name,
          fun buf ->
            match m with
            | Counter c -> Json.int buf (Counter.get c)
            | Gauge fn -> Json.int buf (fn ())
            | Histogram h -> emit_summary h buf ))
      (sorted t)
  in
  Json.obj buf fields;
  Buffer.contents buf
