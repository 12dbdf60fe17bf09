(* Deterministic span/event tracing.

   Events are stamped with *logical* time from an injected clock — in this
   repo, [Sched.Engine] ticks — so two runs with the same seed produce
   byte-identical traces.  Never stamp events with wall-clock time.

   The recorded stream exports to:
   - Chrome [trace_event] JSON (load in chrome://tracing or
     https://ui.perfetto.dev): spans become "ph":"X" complete events,
     instants "ph":"i", thread names "ph":"M" metadata.  Logical ticks are
     emitted directly as microseconds.
   - a compact text timeline for terminals and diffs.

   "Threads" (tid) are scheduler fibers: one row per process in the UI, so
   a trace shows reorganizer passes on one row and each user transaction's
   lock waits on its own row. *)

type arg = Int of int | Float of float | Str of string

type event =
  | Span of {
      name : string;
      cat : string;
      tid : int;
      ts : int;
      dur : int;
      args : (string * arg) list;
    }
  | Instant of { name : string; cat : string; tid : int; ts : int; args : (string * arg) list }
  | Counter of { name : string; cat : string; tid : int; ts : int; args : (string * arg) list }

type pending = { p_name : string; p_cat : string; p_ts : int; p_args : (string * arg) list }

type t = {
  mutable clock : unit -> int;
  mutable events : event list; (* reversed *)
  mutable count : int;
  mutable limit : int; (* drop events beyond this many; 0 = unlimited *)
  mutable dropped : int;
  stacks : (int, pending list ref) Hashtbl.t; (* open spans per tid *)
  mutable threads : (int * string) list; (* registration order, reversed *)
}

let create ?(clock = fun () -> 0) ?(limit = 0) () =
  {
    clock;
    events = [];
    count = 0;
    limit;
    dropped = 0;
    stacks = Hashtbl.create 8;
    threads = [];
  }

let set_clock t clock = t.clock <- clock
let event_count t = t.count
let dropped t = t.dropped

let name_thread t ~tid name =
  if not (List.mem_assoc tid t.threads) then t.threads <- (tid, name) :: t.threads

let record t ev =
  if t.limit > 0 && t.count >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.events <- ev :: t.events;
    t.count <- t.count + 1
  end

let instant t ?(tid = 0) ?(args = []) ~cat name =
  record t (Instant { name; cat; tid; ts = t.clock (); args })

(* Chrome "ph":"C" counter sample: each numeric arg becomes one series in
   the counter track.  Used by the health sampler's time-series ticks. *)
let counter t ?(tid = 0) ~cat name args =
  record t (Counter { name; cat; tid; ts = t.clock (); args })

let complete t ?(tid = 0) ?(args = []) ~cat ~ts ~dur name =
  record t (Span { name; cat; tid; ts; dur; args })

let stack t tid =
  match Hashtbl.find_opt t.stacks tid with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace t.stacks tid s;
    s

let begin_span t ?(tid = 0) ?(args = []) ~cat name =
  let s = stack t tid in
  s := { p_name = name; p_cat = cat; p_ts = t.clock (); p_args = args } :: !s

(* [args] given at the end (e.g. an outcome) are appended to the ones given
   at the beginning. *)
let end_span t ?(tid = 0) ?(args = []) () =
  let s = stack t tid in
  match !s with
  | [] -> invalid_arg "Trace.end_span: no open span for tid"
  | p :: rest ->
    s := rest;
    let ts = p.p_ts in
    record t
      (Span
         {
           name = p.p_name;
           cat = p.p_cat;
           tid;
           ts;
           dur = t.clock () - ts;
           args = p.p_args @ args;
         })

let with_span t ?tid ?args ~cat name f =
  begin_span t ?tid ?args ~cat name;
  Fun.protect ~finally:(fun () -> end_span t ?tid ()) f

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let emit_arg buf = function
  | Int n -> Json.int buf n
  | Float x -> Json.float buf x
  | Str s -> Json.string buf s

let emit_args buf args = Json.obj buf (List.map (fun (k, v) -> (k, fun b -> emit_arg b v)) args)

let emit_event buf ev =
  let common ~name ~cat ~ph ~tid ~ts ~args extra =
    Json.obj buf
      ([
         ("name", fun b -> Json.string b name);
         ("cat", fun b -> Json.string b cat);
         ("ph", fun b -> Json.string b ph);
         ("pid", fun b -> Json.int b 1);
         ("tid", fun b -> Json.int b tid);
         ("ts", fun b -> Json.int b ts);
       ]
      @ extra
      @ (if args = [] then [] else [ ("args", fun b -> emit_args b args) ]))
  in
  match ev with
  | Span { name; cat; tid; ts; dur; args } ->
    common ~name ~cat ~ph:"X" ~tid ~ts ~args [ ("dur", fun b -> Json.int b dur) ]
  | Instant { name; cat; tid; ts; args } ->
    common ~name ~cat ~ph:"i" ~tid ~ts ~args [ ("s", fun b -> Json.string b "t") ]
  | Counter { name; cat; tid; ts; args } -> common ~name ~cat ~ph:"C" ~tid ~ts ~args []

let emit_thread_meta buf (tid, name) =
  Json.obj buf
    [
      ("name", fun b -> Json.string b "thread_name");
      ("ph", fun b -> Json.string b "M");
      ("pid", fun b -> Json.int b 1);
      ("tid", fun b -> Json.int b tid);
      ( "args",
        fun b -> Json.obj b [ ("name", fun b -> Json.string b name) ] );
    ]

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let metas =
    List.map (fun th buf -> emit_thread_meta buf th) (List.rev t.threads)
  in
  let events = List.map (fun ev buf -> emit_event buf ev) (List.rev t.events) in
  Json.obj buf
    [
      ("traceEvents", fun b -> Json.arr b (metas @ events));
      ("displayTimeUnit", fun b -> Json.string b "ms");
    ];
  Buffer.contents buf

let write_chrome t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_chrome_json t);
      output_char oc '\n')

let arg_to_string = function
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s

let args_to_string args =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_string v)) args)

let thread_label t tid =
  match List.assoc_opt tid t.threads with
  | Some name -> name
  | None -> Printf.sprintf "tid-%d" tid

(* Compact text timeline, one line per event in recording order.  Spans are
   printed at their start time with their duration, which keeps the file
   diffable and roughly chronological. *)
let to_timeline t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      (match ev with
      | Span { name; cat; tid; ts; dur; args } ->
        Buffer.add_string buf
          (Printf.sprintf "%8d %-14s span    %s:%s dur=%d%s" ts (thread_label t tid) cat name
             dur
             (if args = [] then "" else " " ^ args_to_string args))
      | Instant { name; cat; tid; ts; args } ->
        Buffer.add_string buf
          (Printf.sprintf "%8d %-14s instant %s:%s%s" ts (thread_label t tid) cat name
             (if args = [] then "" else " " ^ args_to_string args))
      | Counter { name; cat; tid; ts; args } ->
        Buffer.add_string buf
          (Printf.sprintf "%8d %-14s counter %s:%s%s" ts (thread_label t tid) cat name
             (if args = [] then "" else " " ^ args_to_string args)));
      Buffer.add_char buf '\n')
    (List.rev t.events)
  |> ignore;
  Buffer.contents buf

(* Count recorded events whose name matches, a convenience for tests and
   summaries. *)
let count_named t name =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Span { name = n; _ } | Instant { name = n; _ } | Counter { name = n; _ } ->
        if n = name then acc + 1 else acc)
    0 t.events
