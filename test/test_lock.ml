(* Lock manager tests: the paper's Table 1, queueing/fairness, conversions,
   instant-duration requests, deadlock victim selection. *)

module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr

let page n = Resource.Page n

let granted = function `Granted -> true | `Conflict _ -> false

let test_table1_matches_compat () =
  (* Every Yes/No cell of the paper's Table 1 must agree with the compat
     function; blank cells are unconstrained. *)
  List.iter
    (fun g ->
      List.iter
        (fun r ->
          match Mode.paper_cell ~granted:g ~requested:r with
          | `Yes ->
            if not (Mode.compat g r) then
              Alcotest.failf "Table 1 says Yes for %s/%s" (Mode.to_string g) (Mode.to_string r)
          | `No ->
            if Mode.compat g r then
              Alcotest.failf "Table 1 says No for %s/%s" (Mode.to_string g) (Mode.to_string r)
          | `Blank -> ())
        Mode.all)
    Mode.all

let test_compat_symmetry () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "sym %s/%s" (Mode.to_string a) (Mode.to_string b))
            (Mode.compat a b) (Mode.compat b a))
        Mode.all)
    Mode.all

let test_key_paper_cells () =
  (* The semantic rules the protocols rely on. *)
  Alcotest.(check bool) "R compatible with S" true (Mode.compat Mode.R Mode.S);
  Alcotest.(check bool) "RS conflicts with R" false (Mode.compat Mode.RS Mode.R);
  Alcotest.(check bool) "RX conflicts with S" false (Mode.compat Mode.RX Mode.S);
  Alcotest.(check bool) "RX conflicts with IS" false (Mode.compat Mode.RX Mode.IS);
  Alcotest.(check bool) "RX conflicts with RX" false (Mode.compat Mode.RX Mode.RX);
  Alcotest.(check bool) "RS passes S" true (Mode.compat Mode.S Mode.RS);
  Alcotest.(check bool) "IS/IX compatible" true (Mode.compat Mode.IS Mode.IX)


(* Exhaustive pairwise golden test: a third, literal transcription of
   Table 1 (blank cells carrying the documented conservative fill), checked
   cell-by-cell against BOTH the implementation's [Mode.compat] and the
   conformance model's [Model.Table1] matrix.  Implementation, model and
   this test can only all agree by all matching the paper. *)
let golden_order = [| Mode.IS; Mode.IX; Mode.S; Mode.X; Mode.R; Mode.RX; Mode.RS |]

let golden =
  [|
    (* IS *) [| true; true; true; false; true; false; true |];
    (* IX *) [| true; true; false; false; false; false; true |];
    (* S  *) [| true; false; true; false; true; false; true |];
    (* X  *) [| false; false; false; false; false; false; false |];
    (* R  *) [| true; false; true; false; true; false; false |];
    (* RX *) [| false; false; false; false; false; false; false |];
    (* RS *) [| true; true; true; false; false; false; false |];
  |]

let test_golden_matrix () =
  Array.iteri
    (fun i g ->
      Array.iteri
        (fun j r ->
          let want = golden.(i).(j) in
          Alcotest.(check bool)
            (Printf.sprintf "Mode.compat %s/%s" (Mode.to_string g) (Mode.to_string r))
            want (Mode.compat g r);
          Alcotest.(check bool)
            (Printf.sprintf "Table1.compatible %s/%s" (Mode.to_string g) (Mode.to_string r))
            want
            (Model.Table1.compatible g r))
        golden_order)
    golden_order;
  Alcotest.(check int) "model matrix order" (Array.length Model.Table1.order)
    (Array.length golden_order);
  Array.iteri
    (fun i m -> Alcotest.(check bool) "order agrees" true (m = golden_order.(i)))
    Model.Table1.order

let test_golden_upgrades () =
  (* The strengthening conversions the system performs, exhaustively. *)
  let legal =
    [
      (Mode.IS, Mode.IX);
      (Mode.IS, Mode.S);
      (Mode.IS, Mode.X);
      (Mode.IX, Mode.X);
      (Mode.S, Mode.X);
      (Mode.R, Mode.X);
    ]
  in
  List.iter
    (fun from_ ->
      List.iter
        (fun to_ ->
          let want = List.mem (from_, to_) legal in
          Alcotest.(check bool)
            (Printf.sprintf "upgrade %s->%s" (Mode.to_string from_) (Mode.to_string to_))
            want
            (Model.Table1.upgrade_legal ~from_ ~to_))
        Mode.all)
    Mode.all;
  (* And the covering relation the re-entrant grant path uses. *)
  List.iter
    (fun held ->
      List.iter
        (fun need ->
          Alcotest.(check bool)
            (Printf.sprintf "covers %s/%s" (Mode.to_string held) (Mode.to_string need))
            (Mode.covers ~held ~need)
            (Model.Table1.covers ~held ~need))
        Mode.all)
    Mode.all

let test_basic_grant_conflict () =
  let m = Lock_mgr.create () in
  Alcotest.(check bool) "S granted" true (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  Alcotest.(check bool) "S+S ok" true (granted (Lock_mgr.try_acquire m ~owner:2 (page 1) Mode.S));
  (match Lock_mgr.try_acquire m ~owner:3 (page 1) Mode.X with
  | `Granted -> Alcotest.fail "X should conflict"
  | `Conflict blockers ->
    Alcotest.(check int) "two blockers" 2 (List.length blockers));
  Lock_mgr.release m ~owner:1 (page 1) Mode.S;
  Lock_mgr.release m ~owner:2 (page 1) Mode.S;
  Alcotest.(check bool) "X after release" true
    (granted (Lock_mgr.try_acquire m ~owner:3 (page 1) Mode.X))

let test_reentrant () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  Alcotest.(check bool) "reacquire own X" true
    (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  Alcotest.(check bool) "covered S under X" true
    (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S))

let test_fifo_no_overtake () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  let w2 = ref false in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.X ~instant:false ~wake:(fun _ -> w2 := true);
  (* A new S request must not overtake the queued X. *)
  (match Lock_mgr.try_acquire m ~owner:3 (page 1) Mode.S with
  | `Granted -> Alcotest.fail "S overtook queued X"
  | `Conflict _ -> ());
  Lock_mgr.release m ~owner:1 (page 1) Mode.X;
  Alcotest.(check bool) "queued X granted" true !w2;
  Alcotest.(check (list (pair int (list string))))
    "owner 2 holds X"
    [ (2, [ "X" ]) ]
    (List.map (fun (o, ms) -> (o, List.map Mode.to_string ms)) (Lock_mgr.holders m (page 1)))

let test_conversion_jumps_queue () =
  let m = Lock_mgr.create () in
  (* Reorganizer holds R; a reader queues S... wait, S and R are compatible.
     Use: owner 1 holds S, owner 2 queues X, owner 1 converts S->X: the
     conversion waits only for holders, not behind owner 2. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:9 (page 1) Mode.S));
  let w2 = ref false in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.X ~instant:false ~wake:(fun _ -> w2 := true);
  let w1 = ref false in
  (match Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X with
  | `Granted -> Alcotest.fail "conversion should wait for owner 9"
  | `Conflict _ -> ());
  Lock_mgr.enqueue m ~owner:1 (page 1) Mode.X ~instant:false ~wake:(fun _ -> w1 := true);
  Lock_mgr.release m ~owner:9 (page 1) Mode.S;
  Alcotest.(check bool) "conversion granted first" true !w1;
  Alcotest.(check bool) "plain X still waiting" false !w2

let test_instant_duration () =
  let m = Lock_mgr.create () in
  (* Reorganizer (owner 1) holds R on a base page; a reader's RS is instant:
     signalled when R is released, never granted. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.R));
  let signalled = ref false in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.RS ~instant:true ~wake:(fun g ->
      signalled := g = Lock_mgr.Granted);
  Alcotest.(check bool) "not yet" false !signalled;
  Lock_mgr.release m ~owner:1 (page 1) Mode.R;
  Alcotest.(check bool) "signalled" true !signalled;
  Alcotest.(check (list (pair int (list string)))) "nothing held" []
    (List.map (fun (o, ms) -> (o, List.map Mode.to_string ms)) (Lock_mgr.holders m (page 1)))

let test_rs_passes_s_holders () =
  let m = Lock_mgr.create () in
  (* RS only conflicts with R/X: with only S holders it is signalled at
     enqueue-processing time. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:2 (page 1) Mode.R));
  let signalled = ref false in
  Lock_mgr.enqueue m ~owner:3 (page 1) Mode.RS ~instant:true ~wake:(fun _ -> signalled := true);
  Lock_mgr.release m ~owner:2 (page 1) Mode.R;
  Alcotest.(check bool) "signalled with S still held" true !signalled

let test_deadlock_prefers_reorganizer () =
  let m = Lock_mgr.create () in
  Lock_mgr.register_reorganizer m 100;
  (* Reader 1 holds S on A; reorganizer holds RX on B; reader 1 waits for B
     (it would conflict), reorganizer then waits for A -> cycle; the
     reorganizer must be the victim. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:100 (page 2) Mode.RX));
  let r1 = ref None in
  Lock_mgr.enqueue m ~owner:1 (page 2) Mode.S ~instant:false ~wake:(fun g -> r1 := Some g);
  let r100 = ref None in
  Lock_mgr.enqueue m ~owner:100 (page 1) Mode.RX ~instant:false ~wake:(fun g -> r100 := Some g);
  Alcotest.(check bool) "reorganizer is victim" true (!r100 = Some Lock_mgr.Deadlock);
  Alcotest.(check bool) "reader still waiting" true (!r1 = None);
  (* Reorganizer gives up its locks; the reader proceeds. *)
  Lock_mgr.release_all m ~owner:100;
  Alcotest.(check bool) "reader granted" true (!r1 = Some Lock_mgr.Granted)

let test_deadlock_user_user () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  assert (granted (Lock_mgr.try_acquire m ~owner:2 (page 2) Mode.X));
  let r1 = ref None and r2 = ref None in
  Lock_mgr.enqueue m ~owner:1 (page 2) Mode.X ~instant:false ~wake:(fun g -> r1 := Some g);
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.X ~instant:false ~wake:(fun g -> r2 := Some g);
  (* The requester that closed the cycle (owner 2) is the victim. *)
  Alcotest.(check bool) "victim chosen" true (!r2 = Some Lock_mgr.Deadlock);
  Alcotest.(check bool) "other keeps waiting" true (!r1 = None);
  Alcotest.(check int) "deadlocks counted" 1 (Lock_mgr.stats m).Lock_mgr.deadlocks

let test_release_all_wakes () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 2) Mode.X));
  let got = ref 0 in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.S ~instant:false ~wake:(fun _ -> incr got);
  Lock_mgr.release_all m ~owner:1;
  Alcotest.(check int) "woken" 1 !got;
  Alcotest.(check int) "owner 1 holds nothing" 0 (Lock_mgr.locked_count m ~owner:1)

let test_downgrade () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  let woken = ref false in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.S ~instant:false ~wake:(fun _ -> woken := true);
  Lock_mgr.downgrade m ~owner:1 (page 1) ~from_:Mode.X ~to_:Mode.IS;
  Alcotest.(check bool) "S granted after downgrade to IS" true !woken

let test_tree_lock_drain_pattern () =
  (* §7.4: the reorganizer X-locks the old tree name; since every transaction
     using the old tree holds an intention lock on it, the X is granted only
     when they have all finished. *)
  let m = Lock_mgr.create () in
  let tree = Resource.Tree 1 in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 tree Mode.IS));
  assert (granted (Lock_mgr.try_acquire m ~owner:2 tree Mode.IX));
  let drained = ref false in
  Lock_mgr.enqueue m ~owner:100 tree Mode.X ~instant:false ~wake:(fun _ -> drained := true);
  Lock_mgr.release m ~owner:1 tree Mode.IS;
  Alcotest.(check bool) "still one user" false !drained;
  Lock_mgr.release m ~owner:2 tree Mode.IX;
  Alcotest.(check bool) "drained" true !drained

let gauge reg name =
  match Obs.Registry.value reg name with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s not registered" name

let test_gauges_map_to_like_named_counters () =
  (* Pin the gauge wiring: each registered gauge must read the stats field of
     the same name.  Historically give_ups and cancelled_waits were swapped. *)
  let m = Lock_mgr.create () in
  let reg = Obs.Registry.create () in
  Lock_mgr.register_obs m reg;
  (* Instant-duration give-up: owner 1 holds R, owner 2's instant RS is
     signalled when R goes away. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.R));
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.RS ~instant:true ~wake:(fun _ -> ());
  Lock_mgr.release m ~owner:1 (page 1) Mode.R;
  (* Cancelled wait: owner 3 holds X, owner 4 queues, the switch time limit
     cancels it from outside. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:3 (page 2) Mode.X));
  Lock_mgr.enqueue m ~owner:4 (page 2) Mode.X ~instant:false ~wake:(fun _ -> ());
  Alcotest.(check bool) "wait cancelled" true (Lock_mgr.cancel_wait m ~owner:4);
  let s = Lock_mgr.stats m in
  Alcotest.(check int) "instant_signals" 1 s.Lock_mgr.instant_signals;
  Alcotest.(check int) "give_ups" 1 s.Lock_mgr.give_ups;
  Alcotest.(check int) "cancelled_waits" 1 s.Lock_mgr.cancelled_waits;
  List.iter
    (fun (name, field) ->
      Alcotest.(check int) (name ^ " reads its stats field") field (gauge reg name))
    [
      ("lock.acquires", s.Lock_mgr.acquires);
      ("lock.releases", s.Lock_mgr.releases);
      ("lock.waits", s.Lock_mgr.waits);
      ("lock.grants_after_wait", s.Lock_mgr.grants_after_wait);
      ("lock.instant_signals", s.Lock_mgr.instant_signals);
      ("lock.give_ups", s.Lock_mgr.give_ups);
      ("lock.cancelled_waits", s.Lock_mgr.cancelled_waits);
      ("lock.deadlocks", s.Lock_mgr.deadlocks);
      ("lock.scan_steps", s.Lock_mgr.scan_steps);
    ]

(* The lock table keys resources through [Resource.equal]/[hash]/[compare]
   with one match arm per constructor; the polymorphic primitives are the
   oracle they must agree with. *)
let test_resource_keys () =
  let rs =
    Resource.
      [
        Tree 0; Tree 3; Page 0; Page 3; Page max_int; Rec 3; Rec (-1); Rec min_int; Side_file;
        Side_key 0; Side_key 3;
      ]
  in
  (* Rebuilt values: equal by structure, not physically. *)
  let copy = function
    | Resource.Tree n -> Resource.Tree (n + 0)
    | Page n -> Page (n + 0)
    | Rec n -> Rec (n + 0)
    | Side_file -> Side_file
    | Side_key n -> Side_key (n + 0)
  in
  List.iter
    (fun a ->
      let name = Resource.to_string a in
      Alcotest.(check bool) (name ^ " equals its copy") true (Resource.equal a (copy a));
      Alcotest.(check int) (name ^ " hashes like its copy") (Resource.hash a) (Resource.hash (copy a));
      Alcotest.(check bool) (name ^ " hash non-negative") true (Resource.hash a >= 0);
      List.iter
        (fun b ->
          let pair = name ^ "/" ^ Resource.to_string b in
          Alcotest.(check bool) (pair ^ " equal") (a = b) (Resource.equal a b);
          Alcotest.(check int) (pair ^ " compare") (compare a b) (Resource.compare a b);
          if Resource.equal a b then
            Alcotest.(check int) (pair ^ " hash agrees") (Resource.hash a) (Resource.hash b))
        rs)
    rs;
  let threes = Resource.[ Page 3; Tree 3; Rec 3; Side_key 3 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (Resource.to_string a ^ " <> " ^ Resource.to_string b)
              false (Resource.equal a b))
        threes)
    threes

(* A scripted sequence with known per-mode outcomes: immediate grants count
   as acquires, parked requests as waits, the cycle's victim as a deadlock
   victim of its requested mode.  [reset_stats] zeroes every tally. *)
let test_per_mode_tallies () =
  let m = Lock_mgr.create () in
  let reg = Obs.Registry.create () in
  Lock_mgr.register_obs m reg;
  let grant o r md = assert (granted (Lock_mgr.try_acquire m ~owner:o r md)) in
  let park ?(instant = false) o r md =
    assert (not (granted (Lock_mgr.try_acquire m ~owner:o r md)));
    Lock_mgr.enqueue m ~owner:o r md ~instant ~wake:(fun _ -> ())
  in
  grant 1 (page 1) Mode.S;
  grant 2 (page 1) Mode.S;
  grant 1 (Resource.Tree 1) Mode.IX;
  park 3 (page 1) Mode.X;
  grant 4 (Resource.Rec 3) Mode.X;
  grant 5 (page 2) Mode.R;
  park ~instant:true 6 (page 2) Mode.RS;
  Lock_mgr.release m ~owner:5 (page 2) Mode.R;
  (* Covered by the S it holds: a re-entrant grant, still an acquire. *)
  grant 1 (page 1) Mode.IS;
  (* 7 and 8 each hold one page and ask for the other's: 8 closes the cycle
     and, with no reorganizer registered, is the victim. *)
  grant 7 (page 10) Mode.X;
  grant 8 (page 11) Mode.X;
  park 7 (page 11) Mode.X;
  park 8 (page 10) Mode.X;
  let expect kind counts =
    List.iter
      (fun mode ->
        let name = Printf.sprintf "lock.%s.%s" kind (Mode.to_string mode) in
        let want = try List.assoc mode counts with Not_found -> 0 in
        Alcotest.(check int) name want (gauge reg name))
      Mode.all
  in
  expect "acquires" Mode.[ (S, 2); (IX, 1); (X, 3); (R, 1); (IS, 1) ];
  expect "waits" Mode.[ (X, 3); (RS, 1) ];
  expect "deadlock_victims" Mode.[ (X, 1) ];
  Lock_mgr.reset_stats m;
  expect "acquires" [];
  expect "waits" [];
  expect "deadlock_victims" []

let test_locked_counts () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 2) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 3) Mode.X));
  (* Re-acquiring / adding a mode on a held resource is not a new resource. *)
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 3) Mode.S));
  Alcotest.(check int) "three distinct" 3 (Lock_mgr.locked_count m ~owner:1);
  Lock_mgr.release m ~owner:1 (page 1) Mode.S;
  Alcotest.(check int) "down to two" 2 (Lock_mgr.locked_count m ~owner:1);
  Lock_mgr.release_all m ~owner:1;
  Alcotest.(check int) "empty" 0 (Lock_mgr.locked_count m ~owner:1)

let test_scan_steps_counts_work () =
  let m = Lock_mgr.create () in
  for i = 1 to 5 do
    assert (granted (Lock_mgr.try_acquire m ~owner:i (page 1) Mode.S))
  done;
  let s = Lock_mgr.stats m in
  Alcotest.(check bool) "work was charged" true (s.Lock_mgr.scan_steps > 0);
  Lock_mgr.reset_stats m;
  Alcotest.(check int) "reset zeroes it" 0 (Lock_mgr.stats m).Lock_mgr.scan_steps

let modes_str ms = List.map (fun (o, m) -> (o, Mode.to_string m)) ms

(* One wake batch sees the grants it has already decided: behind a released
   X, a queued S is granted and the IX queued after it must not be woken into
   an S/IX co-holding. *)
let test_same_batch_wake () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.X));
  let w2 = ref None and w3 = ref None in
  Lock_mgr.enqueue m ~owner:2 (page 1) Mode.S ~instant:false ~wake:(fun g -> w2 := Some g);
  Lock_mgr.enqueue m ~owner:3 (page 1) Mode.IX ~instant:false ~wake:(fun g -> w3 := Some g);
  Lock_mgr.release m ~owner:1 (page 1) Mode.X;
  Alcotest.(check bool) "S granted" true (!w2 = Some Lock_mgr.Granted);
  Alcotest.(check bool) "IX still waiting" true (!w3 = None);
  Alcotest.(check (list (pair int (list string))))
    "owner 2 alone holds S"
    [ (2, [ "S" ]) ]
    (List.map (fun (o, ms) -> (o, List.map Mode.to_string ms)) (Lock_mgr.holders m (page 1)));
  Alcotest.(check (list (pair int string))) "IX queued" [ (3, "IX") ]
    (modes_str (Lock_mgr.waiters m (page 1)));
  Lock_mgr.release m ~owner:2 (page 1) Mode.S;
  Alcotest.(check bool) "IX granted after S" true (!w3 = Some Lock_mgr.Granted)

(* The [`Conflict] payload: holders first, sorted by owner, each with its
   first conflicting mode; then the conflicting queued waiters in queue
   order. *)
let test_conflict_payload () =
  let m = Lock_mgr.create () in
  assert (granted (Lock_mgr.try_acquire m ~owner:5 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:2 (page 1) Mode.S));
  assert (not (granted (Lock_mgr.try_acquire m ~owner:7 (page 1) Mode.X)));
  Lock_mgr.enqueue m ~owner:7 (page 1) Mode.X ~instant:false ~wake:(fun _ -> ());
  match Lock_mgr.try_acquire m ~owner:9 (page 1) Mode.X with
  | `Granted -> Alcotest.fail "X should conflict"
  | `Conflict blockers ->
    Alcotest.(check (list (pair int string)))
      "holders by owner, then the queue" [ (2, "S"); (5, "S"); (7, "X") ] (modes_str blockers)

(* Holdings count acquisitions: S taken twice and released once still blocks
   an X, and [release_all] emits one [Ev_released] per held acquisition. *)
let test_multiplicity () =
  let m = Lock_mgr.create () in
  let released = ref [] in
  Obs.Bus.subscribe (Lock_mgr.bus m) [ Lock_mgr.topic ] (function
    | Lock_mgr.Ev_released { owner; res; mode } ->
      released := (owner, Resource.to_string res, Mode.to_string mode) :: !released
    | _ -> ());
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 2) Mode.IS));
  Lock_mgr.release m ~owner:1 (page 1) Mode.S;
  Alcotest.(check bool) "one S left blocks X" false
    (granted (Lock_mgr.try_acquire m ~owner:2 (page 1) Mode.X));
  assert (granted (Lock_mgr.try_acquire m ~owner:1 (page 1) Mode.S));
  released := [];
  Lock_mgr.release_all m ~owner:1;
  Alcotest.(check (list (triple int string string)))
    "one event per acquisition"
    [ (1, "page:1", "S"); (1, "page:1", "S"); (1, "page:2", "IS") ]
    (List.rev !released);
  Alcotest.(check bool) "X granted once all are gone" true
    (granted (Lock_mgr.try_acquire m ~owner:2 (page 1) Mode.X))

(* Property: under random acquire/release traffic, no two incompatible modes
   are ever held on one resource, and every [try_acquire] answer, grant or
   refusal, equals a reference built from the test's own [held] list and the
   literal [Model.Table1]: grant exactly when the requester's own holdings
   cover the mode or every other owner's held modes are compatible with it.
   Nothing is ever enqueued, so no queue can refuse a request and the
   reference is exact. *)
let lock_invariant_prop =
  QCheck.Test.make ~name:"no incompatible co-holders" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_bound 120)
            (triple (int_range 1 6) (int_bound 3) (int_bound 5))))
    (fun ops ->
      let m = Lock_mgr.create () in
      let held : (int * Resource.t * Mode.t) list ref = ref [] in
      let modes = [| Mode.IS; Mode.IX; Mode.S; Mode.X; Mode.R; Mode.RX |] in
      List.iter
        (fun (owner, res_i, mode_i) ->
          let res = page res_i in
          let mode = modes.(mode_i) in
          if List.exists (fun (o, r, m') -> o = owner && r = res && m' = mode) !held then begin
            Lock_mgr.release m ~owner res mode;
            held :=
              (let dropped = ref false in
               List.filter
                 (fun (o, r, m') ->
                   if (not !dropped) && o = owner && r = res && m' = mode then begin
                     dropped := true;
                     false
                   end
                   else true)
                 !held)
          end
          else begin
            let on_res = List.filter (fun (_, r, _) -> Resource.equal r res) !held in
            let want =
              List.exists (fun (o, _, m') -> o = owner && Model.Table1.covers ~held:m' ~need:mode) on_res
              || List.for_all (fun (o, _, m') -> o = owner || Model.Table1.compatible m' mode) on_res
            in
            let got = granted (Lock_mgr.try_acquire m ~owner res mode) in
            if got <> want then
              QCheck.Test.fail_reportf "owner %d %s on %s: %s, reference says %s" owner
                (Mode.to_string mode) (Resource.to_string res)
                (if got then "granted" else "refused")
                (if want then "grant" else "refuse");
            if got then held := (owner, res, mode) :: !held
          end;
          (* Check the global invariant after every step. *)
          List.iter
            (fun (o1, r1, m1) ->
              List.iter
                (fun (o2, r2, m2) ->
                  if o1 <> o2 && Resource.equal r1 r2 && not (Mode.compat m1 m2) then
                    QCheck.Test.fail_reportf "incompatible co-holders %s/%s on %s"
                      (Mode.to_string m1) (Mode.to_string m2) (Resource.to_string r1))
                !held)
            !held)
        ops;
      true)

let () =
  Alcotest.run "lock"
    [
      ( "table1",
        [
          Alcotest.test_case "matches paper" `Quick test_table1_matches_compat;
          Alcotest.test_case "symmetry" `Quick test_compat_symmetry;
          Alcotest.test_case "key cells" `Quick test_key_paper_cells;
          Alcotest.test_case "golden matrix (impl+model)" `Quick test_golden_matrix;
          Alcotest.test_case "golden upgrades/covers" `Quick test_golden_upgrades;
        ] );
      ( "manager",
        [
          Alcotest.test_case "grant/conflict" `Quick test_basic_grant_conflict;
          Alcotest.test_case "reentrant" `Quick test_reentrant;
          Alcotest.test_case "fifo fairness" `Quick test_fifo_no_overtake;
          Alcotest.test_case "conversion priority" `Quick test_conversion_jumps_queue;
          Alcotest.test_case "instant duration" `Quick test_instant_duration;
          Alcotest.test_case "RS vs S holders" `Quick test_rs_passes_s_holders;
          Alcotest.test_case "release_all wakes" `Quick test_release_all_wakes;
          Alcotest.test_case "downgrade" `Quick test_downgrade;
          Alcotest.test_case "tree lock drain" `Quick test_tree_lock_drain_pattern;
          Alcotest.test_case "gauge wiring" `Quick test_gauges_map_to_like_named_counters;
          Alcotest.test_case "resource keys" `Quick test_resource_keys;
          Alcotest.test_case "per-mode tallies" `Quick test_per_mode_tallies;
          Alcotest.test_case "locked counts" `Quick test_locked_counts;
          Alcotest.test_case "scan steps" `Quick test_scan_steps_counts_work;
          Alcotest.test_case "same-batch wake" `Quick test_same_batch_wake;
          Alcotest.test_case "conflict payload" `Quick test_conflict_payload;
          Alcotest.test_case "multiplicity" `Quick test_multiplicity;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "reorganizer victim" `Quick test_deadlock_prefers_reorganizer;
          Alcotest.test_case "user-user victim" `Quick test_deadlock_user_user;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest lock_invariant_prop ]);
    ]
