(* WAL tests: codec round-trips (including a qcheck generator over record
   bodies), log stability semantics, checkpoint tracking. *)

module Record = Wal.Record
module Log = Wal.Log
module Lsn = Wal.Lsn

let sample_bodies : Record.body list =
  [
    Txn_begin 7;
    Txn_commit 7;
    Txn_abort 9;
    Update { txn = 1; page = 4; off = 32; before = "aa"; after = "bbb"; prev = 5 };
    Leaf_insert { txn = 2; page = 8; key = 42; payload = "hello"; prev = 0 };
    Leaf_delete { txn = 2; page = 8; key = 42; payload = "hello"; prev = 11 };
    Clr { txn = 2; action = Undo_insert { key = 42 }; undo_next = 3 };
    Clr { txn = 2; action = Undo_delete { key = 1; payload = "p" }; undo_next = 0 };
    Clr { txn = 2; action = Undo_side (Side_insert { key = 5; child = 6 }); undo_next = 1 };
    Clr { txn = 3; action = Undo_phys { page = 7; off = 40; bytes = "zz" }; undo_next = 2 };
    Nta_end { txn = 3; undo_next = 1 };
    Reorg_begin { unit_id = 3; rtype = Compact; base_pages = [ 10 ]; leaf_pages = [ 11; 12; 13 ] };
    Reorg_begin { unit_id = 4; rtype = Swap; base_pages = [ 10; 20 ]; leaf_pages = [ 11; 21 ] };
    Reorg_move
      {
        unit_id = 3;
        org = 11;
        dest = 14;
        payload = Full_records [ (1, "x"); (2, "yy") ];
        prev = 2;
      };
    Reorg_move
      { unit_id = 3; org = 12; dest = 14; payload = Keys_only [ 3; 4; 5 ]; prev = 9 };
    Reorg_move
      {
        unit_id = 4;
        org = 21;
        dest = 22;
        payload = Keys_only [ 6 ];
        prev = 10;
      };
    Reorg_move
      { unit_id = 4; org = 11; dest = 21; payload = Full_records [ (7, "w") ]; prev = 16 };
    Reorg_modify
      {
        unit_id = 3;
        base = 10;
        edits =
          [
            Insert_entry { key = 1; child = 14 };
            Delete_entry { key = 2; child = 11 };
            Update_entry { org_key = 3; org_child = 12; new_key = 4; new_child = 15 };
          ];
        prev = 12;
      };
    Reorg_end { unit_id = 3; largest_key = 99; prev = 13 };
    Side_file { txn = 5; op = Side_insert { key = 7; child = 30 }; prev = 0 };
    Side_file { txn = 5; op = Side_delete { key = 8; child = 31 }; prev = 2 };
    Side_applied { op = Side_insert { key = 7; child = 30 } };
    Stable_key { key = 1234; new_root = 55 };
    Switch { old_root = 2; new_root = 55; old_name = 1; new_name = 2 };
    Checkpoint
      {
        active_txns = [ (1, 5); (2, 9) ];
        reorg =
          {
            rt_lk = 17;
            rt_unit = Some 3;
            rt_begin_lsn = 4;
            rt_last_lsn = 13;
            rt_ck = Some 200;
          };
        dirty_pages = [ 1; 2; 3 ];
      };
    Checkpoint { active_txns = []; reorg = Record.empty_reorg_table; dirty_pages = [] };
  ]

let test_roundtrip_samples () =
  List.iter
    (fun body ->
      let decoded = Record.decode (Record.encode body) in
      if decoded <> body then
        Alcotest.failf "roundtrip failed for %s" (Format.asprintf "%a" Record.pp body))
    sample_bodies

let test_malformed () =
  Alcotest.check_raises "garbage" (Failure "Record.decode: malformed record") (fun () ->
      ignore (Record.decode "zzzz"));
  Alcotest.check_raises "trailing"
    (Failure "Record.decode: malformed record")
    (fun () -> ignore (Record.decode (Record.encode (Record.Txn_begin 1) ^ "x")))

let test_encoded_size_reflects_payload () =
  let small =
    Record.encoded_size
      (Reorg_move
         { unit_id = 1; org = 1; dest = 2; payload = Keys_only [ 1; 2; 3 ]; prev = 0 })
  in
  let big =
    Record.encoded_size
      (Reorg_move
         {
           unit_id = 1;
           org = 1;
           dest = 2;
           payload = Full_records [ (1, String.make 50 'a'); (2, String.make 50 'b'); (3, "c") ];
           prev = 0;
         })
  in
  Alcotest.(check bool) "keys-only is smaller" true (small < big)

let test_log_append_read () =
  let log = Log.create () in
  let l1 = Log.append log (Record.Txn_begin 1) in
  let l2 = Log.append log (Record.Txn_commit 1) in
  Alcotest.(check int) "lsn 1" 1 l1;
  Alcotest.(check int) "lsn 2" 2 l2;
  Alcotest.(check bool) "read back" true (Log.read log l1 = Record.Txn_begin 1);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Log.read log 99))

let test_log_crash_discards_tail () =
  let log = Log.create () in
  let l1 = Log.append log (Record.Txn_begin 1) in
  Log.force log l1;
  let l2 = Log.append log (Record.Txn_commit 1) in
  ignore l2;
  Log.crash log;
  Alcotest.(check int) "flushed survives" l1 (Log.flushed_lsn log);
  Alcotest.check_raises "tail gone" Not_found (fun () -> ignore (Log.read log l2));
  (* The LSN sequence continues after restart. *)
  let l3 = Log.append log (Record.Txn_begin 2) in
  Alcotest.(check bool) "lsn continues" true (l3 > l2)

let test_log_iter_stable_only () =
  let log = Log.create () in
  let l1 = Log.append log (Record.Txn_begin 1) in
  let _l2 = Log.append log (Record.Txn_begin 2) in
  Log.force log l1;
  let seen = ref [] in
  Log.iter log (fun lsn _ -> seen := lsn :: !seen);
  Alcotest.(check (list int)) "only stable" [ 1 ] !seen

let test_checkpoint_tracking () =
  let log = Log.create () in
  Alcotest.(check bool) "none" true (Log.last_checkpoint log = None);
  let c =
    Log.append log
      (Record.Checkpoint
         { active_txns = []; reorg = Record.empty_reorg_table; dirty_pages = [] })
  in
  Alcotest.(check bool) "volatile checkpoint not visible" true (Log.last_checkpoint log = None);
  Log.force_all log;
  (match Log.last_checkpoint log with
  | Some (lsn, Record.Checkpoint _) -> Alcotest.(check int) "lsn" c lsn
  | _ -> Alcotest.fail "expected checkpoint");
  ignore c

let test_stats_accounting () =
  let log = Log.create () in
  ignore (Log.append log (Record.Txn_begin 1));
  ignore (Log.append log (Record.Txn_begin 2));
  let s = Log.stats log in
  Alcotest.(check int) "records" 2 s.Log.records;
  Alcotest.(check bool) "bytes counted" true (s.Log.bytes > 0);
  Log.crash log;
  let s2 = Log.stats log in
  Alcotest.(check int) "crash removes unforced from accounting" 0 s2.Log.records

(* [record_size] reports what [append] counted: the per-record sizes sum to
   the [bytes] gauge, each equals the encoding's length. *)
let test_record_size () =
  let log = Log.create () in
  let lsns = List.map (fun body -> (Log.append log body, body)) sample_bodies in
  let total =
    List.fold_left
      (fun acc (lsn, body) ->
        let n = Log.record_size log lsn in
        Alcotest.(check int) (Format.asprintf "%a" Record.pp body)
          (String.length (Record.encode body)) n;
        acc + n)
      0 lsns
  in
  Alcotest.(check int) "sizes sum to the bytes gauge" (Log.stats log).Log.bytes total;
  Alcotest.check_raises "past the head" Not_found (fun () ->
      ignore (Log.record_size log (Log.head_lsn log + 1)))

let test_reset_stats_then_crash () =
  let log = Log.create () in
  ignore (Log.append log (Record.Txn_begin 1));
  Log.force_all log;
  Log.reset_stats log;
  (* Only volatile records appended AFTER the reset may be subtracted: the
     stable prefix predates the gauge's zero and a crash must not drive the
     counters negative. *)
  ignore (Log.append log (Record.Txn_begin 2));
  Log.crash log;
  let s = Log.stats log in
  Alcotest.(check int) "records not negative" 0 s.Log.records;
  Alcotest.(check bool) "bytes not negative" true (s.Log.bytes >= 0)

let test_truncate_reclaims_prefix () =
  let log = Log.create () in
  let lsns = List.init 5 (fun i -> Log.append log (Record.Txn_begin i)) in
  Log.force_all log;
  Log.truncate log ~keep_from:4;
  Alcotest.(check int) "base" 3 (Log.base_lsn log);
  Alcotest.(check int) "reclaimed" 3 (Log.truncated_records log);
  Alcotest.check_raises "read below base" Not_found (fun () ->
      ignore (Log.read log (List.nth lsns 1)));
  let seen = ref [] in
  Log.iter log (fun lsn _ -> seen := lsn :: !seen);
  Alcotest.(check (list int)) "iter skips reclaimed" [ 4; 5 ] (List.rev !seen);
  (* Appends continue the LSN sequence and a lower keep_from cannot regress
     the base. *)
  let l6 = Log.append log (Record.Txn_begin 6) in
  Alcotest.(check int) "lsn continues" 6 l6;
  Log.truncate log ~keep_from:2;
  Alcotest.(check int) "base never regresses" 3 (Log.base_lsn log)

let test_truncate_spares_volatile_tail () =
  let log = Log.create () in
  let l1 = Log.append log (Record.Txn_begin 1) in
  Log.force log l1;
  let l2 = Log.append log (Record.Txn_begin 2) in
  (* keep_from above the stable boundary is clamped: the volatile tail is
     the crash model's business, not truncation's. *)
  Log.truncate log ~keep_from:99;
  Alcotest.(check int) "base stops at flushed" l1 (Log.base_lsn log);
  Log.force log l2;
  Alcotest.(check bool) "tail survived" true (Log.read log l2 = Record.Txn_begin 2)

let test_truncate_pins_unit_begin () =
  let log = Log.create () in
  let b =
    Log.append log
      (Record.Reorg_begin { unit_id = 9; rtype = Record.Swap; base_pages = [ 1 ]; leaf_pages = [ 2; 3 ] })
  in
  ignore (Log.append log (Record.Txn_begin 1));
  let m =
    Log.append log
      (Record.Reorg_move
         { unit_id = 9; org = 2; dest = 3; payload = Record.Keys_only [ 1 ]; prev = b })
  in
  Log.force_all log;
  (* Truncating between the unit's BEGIN and a retained move would leave
     redo unable to recover the unit's type (a Swap replayed as a Compact
     corrupts the tree): keep_from is lowered to the BEGIN. *)
  Log.truncate log ~keep_from:m;
  Alcotest.(check int) "begin retained" (b - 1) (Log.base_lsn log);
  Alcotest.(check bool) "begin readable" true
    (match Log.read log b with Record.Reorg_begin _ -> true | _ -> false)

let test_group_commit_coalesces () =
  let log = Log.create () in
  let gc = Wal.Group_commit.create log in
  let woken = ref [] in
  let lsns = List.init 5 (fun i -> Log.append log (Record.Txn_begin i)) in
  List.iter (fun l -> Wal.Group_commit.request gc l (fun () -> woken := l :: !woken)) lsns;
  Alcotest.(check int) "parked" 5 (Wal.Group_commit.pending gc);
  let f0 = (Log.stats log).Log.forced in
  Wal.Group_commit.flush gc;
  Alcotest.(check int) "one force per batch" (f0 + 1) (Log.stats log).Log.forced;
  Alcotest.(check (list int)) "all woken, oldest first" lsns (List.rev !woken);
  Alcotest.(check int) "nothing parked" 0 (Wal.Group_commit.pending gc);
  Alcotest.(check bool) "acks covered by flushed" true
    (List.for_all (fun l -> l <= Log.flushed_lsn log) !woken);
  let s = Wal.Group_commit.stats gc in
  Alcotest.(check int) "batches" 1 s.Wal.Group_commit.batches;
  Alcotest.(check int) "coalesced" 5 s.Wal.Group_commit.coalesced;
  Alcotest.(check int) "max batch" 5 s.Wal.Group_commit.max_batch

let test_group_commit_torn_tail () =
  let faults = Pager.Fault.create () in
  let log = Log.create () in
  Log.set_fault log faults;
  let gc = Wal.Group_commit.create log in
  let woken = ref [] in
  let lsns = List.init 4 (fun i -> Log.append log (Record.Txn_begin i)) in
  List.iter (fun l -> Wal.Group_commit.request gc l (fun () -> woken := l :: !woken)) lsns;
  let flushed0 = Log.flushed_lsn log in
  Pager.Fault.arm faults
    { Pager.Fault.no_faults with crash_after_forces = Some 1; torn_tail = true; seed = 3 };
  (try
     Wal.Group_commit.flush gc;
     Alcotest.fail "expected Crash"
   with Pager.Fault.Crash -> ());
  Pager.Fault.disarm faults;
  (* The torn force may have committed any prefix, but the boundary is
     monotone and nobody was acknowledged — exactly a synchronous force
     that never returned. *)
  let flushed1 = Log.flushed_lsn log in
  Alcotest.(check bool) "flushed monotone" true (flushed1 >= flushed0);
  Alcotest.(check bool) "flushed bounded" true (flushed1 <= List.nth lsns 3);
  Alcotest.(check (list int)) "no acks from a crashed force" [] !woken;
  Log.crash log;
  List.iter
    (fun l ->
      if l <= flushed1 then
        Alcotest.(check bool) "stable prefix survives" true (Log.read log l = Record.Txn_begin (l - 1))
      else Alcotest.check_raises "torn tail gone" Not_found (fun () -> ignore (Log.read log l)))
    lsns

let test_torn_checkpoint_not_tracked () =
  let faults = Pager.Fault.create () in
  let log = Log.create () in
  Log.set_fault log faults;
  ignore (Log.append log (Record.Txn_begin 1));
  let c =
    Log.append log
      (Record.Checkpoint
         { active_txns = []; reorg = Record.empty_reorg_table; dirty_pages = [] })
  in
  Pager.Fault.arm faults
    { Pager.Fault.no_faults with crash_after_forces = Some 1; torn_tail = true; seed = 11 };
  (try
     Log.force log c;
     Alcotest.fail "expected Crash"
   with Pager.Fault.Crash -> ());
  Pager.Fault.disarm faults;
  (* Only a checkpoint that made it below the stable boundary counts. *)
  (match Log.last_checkpoint log with
  | Some (lsn, _) -> Alcotest.(check bool) "tracked checkpoint is stable" true (lsn <= Log.flushed_lsn log)
  | None -> ())

(* Property: encode/decode round-trips over generated record bodies. *)
let gen_body : Record.body QCheck.Gen.t =
  let open QCheck.Gen in
  let key = int_bound 10000 in
  let pid = int_bound 500 in
  let str = string_size ~gen:printable (int_bound 30) in
  let side_op =
    oneof
      [
        map2 (fun key child -> Record.Side_insert { key; child }) key pid;
        map2 (fun key child -> Record.Side_delete { key; child }) key pid;
      ]
  in
  let ints = list_size (int_bound 6) pid in
  let edit =
    oneof
      [
        map2 (fun key child -> Record.Insert_entry { key; child }) key pid;
        map2 (fun key child -> Record.Delete_entry { key; child }) key pid;
        (let* org_key = key and* org_child = pid and* new_key = key and* new_child = pid in
         return (Record.Update_entry { org_key; org_child; new_key; new_child }));
      ]
  in
  let clr_action =
    oneof
      [
        map (fun key -> Record.Undo_insert { key }) key;
        map2 (fun key payload -> Record.Undo_delete { key; payload }) key str;
        map (fun op -> Record.Undo_side op) side_op;
        (let* page = pid and* off = int_bound 256 and* bytes = str in
         return (Record.Undo_phys { page; off; bytes }));
      ]
  in
  oneof
    [
      map (fun t -> Record.Txn_begin t) (int_bound 100);
      map (fun t -> Record.Txn_commit t) (int_bound 100);
      map (fun t -> Record.Txn_abort t) (int_bound 100);
      (let* txn = int_bound 100 and* page = pid and* off = int_bound 256 in
       let* before = str and* after = str and* prev = int_bound 50 in
       return (Record.Update { txn; page; off; before; after; prev }));
      (let* txn = int_bound 100 and* page = pid and* key = key and* payload = str in
       let* prev = int_bound 50 in
       return (Record.Leaf_insert { txn; page; key; payload; prev }));
      (let* txn = int_bound 100 and* page = pid and* key = key and* payload = str in
       let* prev = int_bound 50 in
       return (Record.Leaf_delete { txn; page; key; payload; prev }));
      (let* txn = int_bound 100 and* action = clr_action and* undo_next = int_bound 50 in
       return (Record.Clr { txn; action; undo_next }));
      map2 (fun txn undo_next -> Record.Nta_end { txn; undo_next }) (int_bound 100) (int_bound 50);
      (let* unit_id = int_bound 20 and* base_pages = ints and* leaf_pages = ints in
       let* rtype = oneofl [ Record.Compact; Swap; Move ] in
       return (Record.Reorg_begin { unit_id; rtype; base_pages; leaf_pages }));
      (let* unit_id = int_bound 20 and* org = pid and* dest = pid and* prev = int_bound 50 in
       let* payload =
         oneof
           [
             map (fun ks -> Record.Keys_only ks) (list_size (int_bound 10) key);
             map (fun rs -> Record.Full_records rs) (list_size (int_bound 10) (pair key str));
           ]
       in
       return (Record.Reorg_move { unit_id; org; dest; payload; prev }));
      (let* unit_id = int_bound 20 and* base = pid and* prev = int_bound 50 in
       let* edits = list_size (int_bound 5) edit in
       return (Record.Reorg_modify { unit_id; base; edits; prev }));
      (let* unit_id = int_bound 20 and* largest_key = key and* prev = int_bound 50 in
       return (Record.Reorg_end { unit_id; largest_key; prev }));
      (let* txn = int_bound 100 and* op = side_op and* prev = int_bound 50 in
       return (Record.Side_file { txn; op; prev }));
      map (fun op -> Record.Side_applied { op }) side_op;
      map2 (fun key new_root -> Record.Stable_key { key; new_root }) key pid;
      (let* old_root = pid and* new_root = pid and* old_name = int_bound 9 in
       let* new_name = int_bound 9 in
       return (Record.Switch { old_root; new_root; old_name; new_name }));
      (let* active_txns = list_size (int_bound 4) (pair (int_bound 100) (int_bound 50)) in
       let* rt_lk = key and* rt_unit = opt (int_bound 20) and* rt_begin_lsn = int_bound 50 in
       let* rt_last_lsn = int_bound 50 and* rt_ck = opt key and* dirty_pages = ints in
       let reorg = { Record.rt_lk; rt_unit; rt_begin_lsn; rt_last_lsn; rt_ck } in
       return (Record.Checkpoint { active_txns; reorg; dirty_pages }));
    ]

let roundtrip_prop =
  QCheck.Test.make ~name:"record codec roundtrip" ~count:500 (QCheck.make gen_body) (fun body ->
      Record.decode (Record.encode body) = body)

(* [encoded_size] runs the encoder into a byte-counting sink; it must agree
   with the real encoding on every constructor — the deterministic samples
   pin each constructor and payload variant, the generator varies lengths. *)
let size_agrees body = Record.encoded_size body = String.length (Record.encode body)

let test_encoded_size_samples () =
  List.iter
    (fun body ->
      if not (size_agrees body) then
        Alcotest.failf "encoded_size %d <> encoding length %d for %s" (Record.encoded_size body)
          (String.length (Record.encode body))
          (Format.asprintf "%a" Record.pp body))
    sample_bodies

let encoded_size_prop =
  QCheck.Test.make ~name:"encoded_size = length of encode" ~count:500 (QCheck.make gen_body)
    size_agrees

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "samples roundtrip" `Quick test_roundtrip_samples;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "size reflects payload" `Quick test_encoded_size_reflects_payload;
          Alcotest.test_case "size = encoding length (samples)" `Quick test_encoded_size_samples;
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest encoded_size_prop;
        ] );
      ( "log",
        [
          Alcotest.test_case "append/read" `Quick test_log_append_read;
          Alcotest.test_case "crash discards tail" `Quick test_log_crash_discards_tail;
          Alcotest.test_case "iter stable only" `Quick test_log_iter_stable_only;
          Alcotest.test_case "checkpoint tracking" `Quick test_checkpoint_tracking;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "record size" `Quick test_record_size;
          Alcotest.test_case "reset stats then crash" `Quick test_reset_stats_then_crash;
        ] );
      ( "truncate",
        [
          Alcotest.test_case "reclaims prefix" `Quick test_truncate_reclaims_prefix;
          Alcotest.test_case "spares volatile tail" `Quick test_truncate_spares_volatile_tail;
          Alcotest.test_case "pins unit begin" `Quick test_truncate_pins_unit_begin;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "coalesces into one force" `Quick test_group_commit_coalesces;
          Alcotest.test_case "torn tail" `Quick test_group_commit_torn_tail;
          Alcotest.test_case "torn checkpoint not tracked" `Quick test_torn_checkpoint_not_tracked;
        ] );
    ]
