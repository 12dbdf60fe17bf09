(* Optimistic read path (DESIGN.md §11): the version-table mechanics, the
   non-enqueuing RX probe, the zero-lock fast path, the pinned lock trace of
   the locked reader's give-up retry loop (the fallback the optimistic path
   reuses), the concurrent-scan equivalence property, and the
   skipped-version-bump mutation self-test. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Olc = Btree.Olc
module Access = Btree.Access
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr
module Lock_client = Transact.Lock_client
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db

let payload = Db.payload_for

let mk ?(n = 600) () =
  let db = Db.create () in
  let tx = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to n - 1 do
    Tree.insert db.Db.tree ~txn:tx ~key:(2 * k) ~payload:(payload (2 * k)) ()
  done;
  Txn_mgr.commit db.Db.mgr tx;
  db

(* ------------------------------------------------------------------ *)
(* Version table                                                       *)
(* ------------------------------------------------------------------ *)

let test_version_table () =
  let o = Olc.create () in
  Alcotest.(check int) "unwritten page reads 0" 0 (Olc.version o 7);
  Olc.bump o 7;
  Olc.bump o 7;
  Olc.bump o 9;
  Alcotest.(check int) "two bumps" 2 (Olc.version o 7);
  Alcotest.(check int) "independent pages" 1 (Olc.version o 9);
  Alcotest.(check int) "bump counter" 3 (Olc.version_bumps o);
  let e0 = Olc.epoch o in
  Olc.unit_begin o;
  Alcotest.(check bool) "unit active" true (Olc.active o);
  Olc.invalidate_all o;
  Alcotest.(check int) "epoch advanced" (e0 + 1) (Olc.epoch o);
  Alcotest.(check int) "version table cleared" 0 (Olc.version o 7);
  Alcotest.(check bool) "active cleared by crash" false (Olc.active o);
  (* Recovery finishes a unit whose BEGIN predates the crash: the END must
     not drive the gauge negative. *)
  Olc.unit_end o;
  Olc.unit_begin o;
  Alcotest.(check bool) "clamped at zero, not -1" true (Olc.active o);
  Olc.unit_end o;
  Alcotest.(check bool) "balanced again" false (Olc.active o)

let test_skip_bumps_flag () =
  let o = Olc.create () in
  Olc.test_skip_bumps := true;
  Fun.protect
    ~finally:(fun () -> Olc.test_skip_bumps := false)
    (fun () ->
      Olc.bump o 3;
      Alcotest.(check int) "bump suppressed" 0 (Olc.version o 3))

(* ------------------------------------------------------------------ *)
(* Non-enqueuing RX-presence probe                                     *)
(* ------------------------------------------------------------------ *)

let test_probe_non_mutating () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:1 (Resource.Page 5) Mode.RX : Lock_mgr.outcome);
  let s0 = Lock_mgr.stats lm in
  Alcotest.(check bool) "S against RX refused" false
    (Lock_mgr.probe lm ~owner:2 (Resource.Page 5) Mode.S);
  Alcotest.(check bool) "free page grantable" true
    (Lock_mgr.probe lm ~owner:2 (Resource.Page 6) Mode.S);
  Alcotest.(check bool) "re-entrant on own holding" true
    (Lock_mgr.probe lm ~owner:1 (Resource.Page 5) Mode.RX);
  let s1 = Lock_mgr.stats lm in
  Alcotest.(check int) "probes counted" (s0.Lock_mgr.instant_checks + 3)
    s1.Lock_mgr.instant_checks;
  Alcotest.(check int) "no acquires" s0.Lock_mgr.acquires s1.Lock_mgr.acquires;
  Alcotest.(check int) "no waits" s0.Lock_mgr.waits s1.Lock_mgr.waits;
  Alcotest.(check int) "no releases" s0.Lock_mgr.releases s1.Lock_mgr.releases;
  (* Probing never enqueued anything: the refused owner holds and awaits
     nothing, so releasing the RX wakes nobody. *)
  Alcotest.(check (list string)) "probe owner holds nothing" []
    (List.map (fun (r, _) -> Resource.to_string r) (Lock_mgr.held_resources lm ~owner:2))

(* ------------------------------------------------------------------ *)
(* Zero-lock optimistic reads on a quiet tree                          *)
(* ------------------------------------------------------------------ *)

let test_olc_read_zero_locks () =
  let db = mk () in
  Access.set_olc db.Db.access true;
  let olc = Tree.olc db.Db.tree in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let s0, _, _ = Lock_mgr.mode_tally db.Db.locks Mode.S in
      let a0 = (Lock_mgr.stats db.Db.locks).Lock_mgr.acquires in
      let r0 = Olc.reads olc in
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      Alcotest.(check (option string)) "point value" (Some (payload 100))
        (Access.read db.Db.access ~txn:tx 100);
      Alcotest.(check (option string)) "absent key" None
        (Access.read db.Db.access ~txn:tx 101);
      let keys =
        List.map
          (fun r -> r.Btree.Leaf.key)
          (Access.range_read db.Db.access ~txn:tx ~lo:100 ~hi:140)
      in
      Txn_mgr.finish_read_only db.Db.mgr tx;
      Alcotest.(check (list int)) "range keys"
        [ 100; 102; 104; 106; 108; 110; 112; 114; 116; 118; 120; 122; 124; 126; 128;
          130; 132; 134; 136; 138; 140 ]
        keys;
      let s1, _, _ = Lock_mgr.mode_tally db.Db.locks Mode.S in
      let a1 = (Lock_mgr.stats db.Db.locks).Lock_mgr.acquires in
      Alcotest.(check int) "no S acquires" s0 s1;
      Alcotest.(check int) "no lock acquires at all" a0 a1;
      Alcotest.(check bool) "optimistic reads committed" true (Olc.reads olc > r0));
  Engine.run eng

(* A read issued while a reorganization unit is in flight falls back to
   the locked path at once: re-descending without a yield in between would
   fail the same in-flight check every time. *)
let test_read_inside_unit () =
  let db = mk () in
  Access.set_olc db.Db.access true;
  let olc = Tree.olc db.Db.tree in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let r0 = Olc.retries olc and f0 = Olc.fallbacks olc in
      Olc.unit_begin olc;
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      Alcotest.(check (option string)) "point value" (Some (payload 100))
        (Access.read db.Db.access ~txn:tx 100);
      Txn_mgr.finish_read_only db.Db.mgr tx;
      Olc.unit_end olc;
      Alcotest.(check int) "no retries" 0 (Olc.retries olc - r0);
      Alcotest.(check int) "one fallback" 1 (Olc.fallbacks olc - f0));
  Engine.run eng

(* An optimistic read yields where the locked one does: one dispatch per
   internal node for a point read (the base page steps onto its leaf in the
   same atomic step), plus one per leaf for a scan, as [walk_chain].  And a
   cold point read misses on exactly the pages the locked read does — the
   B-link chase does not fetch the right sibling when the leaf already
   holds a key at or above the one sought. *)
let test_olc_costs_like_locked () =
  let db = mk () in
  let tree = db.Db.tree in
  Alcotest.(check bool) "an inner level above the base pages" true (Tree.height tree >= 3);
  let key = 100 and lo = 100 and hi = 400 in
  let leaf = Tree.find_leaf tree key in
  Alcotest.(check bool) "key below its leaf's max" true
    (Option.get (Btree.Leaf.max_key (Tree.page tree leaf)) > key);
  Alcotest.(check bool) "the leaf has a right sibling" true
    (Btree.Leaf.next (Tree.page tree leaf) <> None);
  Alcotest.(check bool) "the scan spans several leaves" true
    (Tree.find_leaf tree lo <> Tree.find_leaf tree hi);
  let cost ~olc f =
    Access.set_olc db.Db.access olc;
    Db.flush_all db;
    Pager.Buffer_pool.crash db.Db.pool;
    let m0 = (Pager.Buffer_pool.stats db.Db.pool).Pager.Buffer_pool.s_misses in
    let eng = Engine.create () in
    Engine.spawn eng (fun () ->
        let tx = Txn_mgr.fresh_owner db.Db.mgr in
        f tx;
        Txn_mgr.finish_read_only db.Db.mgr tx);
    Engine.run eng;
    (Engine.dispatches eng, (Pager.Buffer_pool.stats db.Db.pool).Pager.Buffer_pool.s_misses - m0)
  in
  let olc = Tree.olc tree in
  let point tx = ignore (Access.read db.Db.access ~txn:tx key : string option) in
  let scan tx = ignore (Access.range_read db.Db.access ~txn:tx ~lo ~hi : Btree.Leaf.record list) in
  let locked_point = cost ~olc:false point and locked_scan = cost ~olc:false scan in
  let r0 = Olc.reads olc in
  let olc_point = cost ~olc:true point and olc_scan = cost ~olc:true scan in
  Alcotest.(check int) "both optimistic reads committed" (r0 + 2) (Olc.reads olc);
  Alcotest.(check int) "point read dispatches" (fst locked_point) (fst olc_point);
  Alcotest.(check int) "cold point read misses" (snd locked_point) (snd olc_point);
  Alcotest.(check int) "scan dispatches" (fst locked_scan) (fst olc_scan)

(* A writer changes the base page while the reader is parked on the yield
   before it.  The root, which holds the pointer to that base page, is
   unchanged, so the pointer is still the tree's: the reader reads the base
   page as it is now, as a locked reader waiting there would, instead of
   re-descending.  With the root changed too, the pointer is suspect and
   the reader retries from the root.  So does a reader whose base page was
   freed or reused under an unchanged root (here: reformatted in place, and
   put back on the writer's next slice): the page is no longer what the
   root's pointer promises. *)
let test_conflict_below_unchanged_parent () =
  let db = mk () in
  let tree = db.Db.tree in
  let olc = Tree.olc tree in
  let key = 100 in
  let root, base =
    match Tree.descend_path tree key with
    | root :: base :: [ _leaf ] -> (root, base)
    | _ -> Alcotest.fail "expected a three-level tree"
  in
  let read_during ?(restore = ignore) bump =
    let r0 = Olc.retries olc and n0 = Olc.reads olc in
    let got = ref None in
    let eng = Engine.create () in
    Engine.spawn eng ~name:"reader" (fun () ->
        let tx = Txn_mgr.fresh_owner db.Db.mgr in
        got := Access.read db.Db.access ~txn:tx key;
        Txn_mgr.finish_read_only db.Db.mgr tx);
    Engine.spawn eng ~name:"writer" (fun () ->
        (* The reader has read the root and is parked before the base. *)
        Engine.yield ();
        bump ();
        Engine.yield ();
        restore ());
    Engine.run eng;
    Alcotest.(check (option string)) "value" (Some (payload key)) !got;
    Alcotest.(check int) "committed optimistically" (n0 + 1) (Olc.reads olc);
    Olc.retries olc - r0
  in
  Alcotest.(check int) "base changed, root not: no retry" 0
    (read_during (fun () -> Olc.bump olc base));
  Alcotest.(check int) "base and root changed: one retry" 1
    (read_during (fun () ->
         Olc.bump olc base;
         Olc.bump olc root));
  let bp = Tree.page tree base in
  let saved = Pager.Page.create ~size:(Pager.Buffer_pool.page_size db.Db.pool) in
  let reformat f =
    read_during
      (fun () ->
        Pager.Page.copy_into ~src:bp ~dst:saved;
        f bp;
        Olc.bump olc base)
      ~restore:(fun () ->
        Pager.Page.copy_into ~src:saved ~dst:bp;
        Olc.bump olc base)
  in
  let low = Btree.Inode.low_mark bp in
  Alcotest.(check int) "base reused as a leaf: one retry" 1
    (reformat (fun p -> Btree.Leaf.init p ~low_mark:low));
  Alcotest.(check int) "base reused one level up: one retry" 1
    (reformat (fun p -> Btree.Inode.init p ~level:2 ~low_mark:low));
  Alcotest.(check int) "base reused right of the key: one retry" 1
    (reformat (fun p -> Btree.Inode.set_low_mark p (key + 1)))

(* Stores read optimistically unless told otherwise, as the reorganizer's
   default configuration says. *)
let test_default_matches_config () =
  let want = Reorg.Config.default.Reorg.Config.olc in
  Alcotest.(check bool) "Db.create" want (Access.olc_enabled (Db.create ()).Db.access);
  Alcotest.(check bool) "Db.load" want
    (Access.olc_enabled (Db.load ~fill:0.5 [ (0, payload 0) ]).Db.access)

(* After a crash-style invalidation the epoch differs, but a fresh read
   re-captures current versions and still succeeds optimistically. *)
let test_olc_read_after_invalidate () =
  let db = mk () in
  Access.set_olc db.Db.access true;
  Olc.invalidate_all (Tree.olc db.Db.tree);
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      Alcotest.(check (option string)) "value after epoch advance"
        (Some (payload 200))
        (Access.read db.Db.access ~txn:tx 200);
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.run eng

(* ------------------------------------------------------------------ *)
(* The give-up retry loop's lock trace (the OLC fallback path)          *)
(* ------------------------------------------------------------------ *)

(* Pin the §4.1.2 give-up sequence on the base page, event by event: the
   reader's S arrives, is released when the leaf probe hits the RX, an
   unconditional instant-duration RS parks and is signalled when the
   reorganizer finishes, and the retry re-takes and finally releases S.
   This is the exact loop [Access.give_up_and_wait] drives and the locked
   protocol the optimistic path falls back to — at once, since the RX the
   leaf probe meets is a held lock, not a version conflict worth retrying. *)
let test_give_up_lock_trace () =
  let db = mk () in
  let olc = Tree.olc db.Db.tree in
  let r0 = Olc.retries olc and f0 = Olc.fallbacks olc in
  let reorg = Txn_mgr.fresh_owner db.Db.mgr in
  Lock_mgr.register_reorganizer db.Db.locks reorg.Transact.Txn.id;
  let leaf = Tree.find_leaf db.Db.tree 100 in
  let base = Option.get (Tree.parent_of_leaf db.Db.tree 100) in
  let reader = ref (-1) in
  let trace = ref [] in
  Lock_mgr.set_event_hook db.Db.locks
    (Some
       (fun ev ->
         let note owner res kind mode =
           if owner = !reader && res = Resource.Page base then
             trace := (kind ^ " " ^ Mode.to_string mode) :: !trace
         in
         match ev with
         | Lock_mgr.Ev_granted { owner; res; mode; _ } -> note owner res "granted" mode
         | Lock_mgr.Ev_queued { owner; res; mode; instant; _ } ->
           note owner res (if instant then "queued-instant" else "queued") mode
         | Lock_mgr.Ev_signalled { owner; res; mode } -> note owner res "signalled" mode
         | Lock_mgr.Ev_victim { owner; res; mode; _ } -> note owner res "victim" mode
         | Lock_mgr.Ev_dequeued { owner; res; mode } -> note owner res "dequeued" mode
         | Lock_mgr.Ev_released { owner; res; mode } -> note owner res "released" mode));
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page base) Mode.R;
      Lock_client.acquire db.Db.locks ~txn:reorg (Resource.Page leaf) Mode.RX;
      Engine.sleep 10;
      Lock_client.release_all db.Db.locks ~txn:reorg);
  Engine.spawn eng (fun () ->
      Engine.sleep 2;
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      reader := tx.Transact.Txn.id;
      let v = Access.read db.Db.access ~txn:tx 100 in
      Alcotest.(check (option string)) "correct value" (Some (payload 100)) v;
      Alcotest.(check bool) "gave up once" true (tx.Transact.Txn.gave_up >= 1);
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.run eng;
  Lock_mgr.set_event_hook db.Db.locks None;
  Alcotest.(check (list string)) "base-page lock trace of the retry loop"
    [ "granted S"; "released S"; "queued-instant RS"; "signalled RS"; "granted S";
      "released S" ]
    (List.rev !trace);
  Alcotest.(check bool) "optimistic by default" true (Access.olc_enabled db.Db.access);
  Alcotest.(check int) "no optimistic retry" r0 (Olc.retries olc);
  Alcotest.(check int) "one fallback to the locked path" (f0 + 1) (Olc.fallbacks olc)

(* ------------------------------------------------------------------ *)
(* Concurrent-scan equivalence (3 seeds)                               *)
(* ------------------------------------------------------------------ *)

(* While a full reorganization (pass 1 moves, pass 2 compaction/swaps,
   pass 3 + switch) runs, an optimistic scanner repeatedly reads the whole
   key range lock-free.  Every scan — whatever its interleaving — must
   return exactly the locked answer: the tree's unchanging key set. *)
let test_scan_equivalence () =
  List.iter
    (fun seed ->
      let n = 1500 in
      let db, records = Sim.Scenario.aged ~seed ~n ~f1:0.3 () in
      let expected = List.map fst records in
      Access.set_olc db.Db.access true;
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      let report = ref None in
      Engine.spawn eng ~name:"reorganizer" (fun () ->
          report := Some (Reorg.Driver.run ctx));
      let scans = ref 0 in
      Engine.spawn eng ~name:"scanner" (fun () ->
          (* Sliding 100-key windows on a fixed lattice: short enough that
             dozens of scans land inside the reorganization, together
             covering the whole key range many times over. *)
          while !report = None do
            let lo = 37 * !scans mod (2 * n) in
            let hi = lo + 100 in
            let tx = Txn_mgr.fresh_owner db.Db.mgr in
            let keys =
              List.map
                (fun r -> r.Btree.Leaf.key)
                (Access.range_read db.Db.access ~txn:tx ~lo ~hi)
            in
            Txn_mgr.finish_read_only db.Db.mgr tx;
            incr scans;
            if keys <> List.filter (fun k -> k >= lo && k <= hi) expected then
              Alcotest.failf "seed %d scan %d [%d,%d] diverged" seed !scans lo hi;
            Engine.sleep 3
          done;
          (* And one full scan against the locked answer once quiet. *)
          let tx = Txn_mgr.fresh_owner db.Db.mgr in
          let keys =
            List.map
              (fun r -> r.Btree.Leaf.key)
              (Access.range_read db.Db.access ~txn:tx ~lo:0 ~hi:(2 * n))
          in
          Txn_mgr.finish_read_only db.Db.mgr tx;
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d: full optimistic scan" seed)
            expected keys);
      Engine.run eng;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: scans ran concurrently" seed)
        true (!scans > 10))
    [ 3; 5; 9 ]

(* ------------------------------------------------------------------ *)
(* Conflict re-descent must not re-collect absorbed records            *)
(* ------------------------------------------------------------------ *)

(* Regression: an optimistic scan collects leaf A, parks on the chain-step
   yield towards leaf B, and in that window a compact absorbs B's records
   into A (what a pass-2 move does once B's base entry is dropped).  The
   scan's re-descent for the continuation key lands back on A — which now
   also holds every record the scan already collected — so the continuation
   filter must narrow to the continuation key, not the original [lo], or
   A's records are returned twice.  The engine is FIFO-deterministic, so
   parking the compactor for exactly the scanner's yields up to collecting
   A — one per internal node on the descent, one for the step onto A —
   puts its one atomic slice precisely inside the scanner's chain-step
   window. *)
let test_redescend_no_duplicates () =
  let db = mk () in
  Access.set_olc db.Db.access true;
  let tree = db.Db.tree in
  let olc = Tree.olc tree in
  let a = Tree.first_leaf tree in
  let pa = Tree.page tree a in
  let b = Option.get (Btree.Leaf.next pa) in
  let pb = Tree.page tree b in
  (* Thin both leaves to 3 records each so B's survivors fit into A. *)
  let thin p =
    List.iteri
      (fun i k -> if i >= 3 then ignore (Btree.Leaf.delete p k : string option))
      (Btree.Leaf.keys p)
  in
  thin pa;
  thin pb;
  let hi = Option.get (Btree.Leaf.max_key pb) in
  let expected = Btree.Leaf.keys pa @ Btree.Leaf.keys pb in
  let yields_to_a = (Tree.height tree - 1) + 1 in
  let r0 = Olc.retries olc in
  let got = ref [] in
  let eng = Engine.create () in
  Engine.spawn eng ~name:"scanner" (fun () ->
      let tx = Txn_mgr.fresh_owner db.Db.mgr in
      got :=
        List.map
          (fun r -> r.Btree.Leaf.key)
          (Access.range_read db.Db.access ~txn:tx ~lo:0 ~hi);
      Txn_mgr.finish_read_only db.Db.mgr tx);
  Engine.spawn eng ~name:"compactor" (fun () ->
      for _ = 1 to yields_to_a do
        Engine.yield ()
      done;
      (* One atomic (yield-free) slice: absorb B into A and unlink it. *)
      List.iter
        (fun r -> Alcotest.(check bool) "record fits" true (Btree.Leaf.insert pa r))
        (Btree.Leaf.records pb);
      Btree.Leaf.set_next pa (Btree.Leaf.next pb);
      (match Btree.Leaf.next pb with
      | Some c -> Btree.Leaf.set_prev (Tree.page tree c) (Some a)
      | None -> ());
      let bkey = Btree.Leaf.low_mark pb in
      Btree.Leaf.clear pb;
      Tree.delete_base_entry tree bkey;
      Olc.bump olc a;
      Olc.bump olc b);
  Engine.run eng;
  (* The conflict path must actually have fired, else the staging drifted
     and the check below would pass vacuously. *)
  Alcotest.(check bool) "scan hit the conflict re-descent" true (Olc.retries olc > r0);
  Alcotest.(check (list int)) "no duplicates after re-descend" expected !got

(* ------------------------------------------------------------------ *)
(* Mutation self-test wiring                                           *)
(* ------------------------------------------------------------------ *)

(* With the version bumps suppressed, the conformance sweep must catch a
   committed optimistic read that disagrees with its oracle — the same
   check `reorg-cli model --mutate olc` turns into exit code 2. *)
let test_mutation_caught () =
  let s = Sim.Conformance.mutate_olc () in
  Alcotest.(check bool) "checker reported a violation" false (Sim.Conformance.ok s);
  (* And the identical scenario with bumps intact is clean. *)
  let clean = Sim.Conformance.workload ~olc:true ~seed:11 () in
  Alcotest.(check bool) "clean arm conforms" true (Sim.Conformance.ok clean)

let () =
  Alcotest.run "olc"
    [
      ( "version-table",
        [
          Alcotest.test_case "bump/invalidate/epoch/clamp" `Quick test_version_table;
          Alcotest.test_case "test_skip_bumps" `Quick test_skip_bumps_flag;
        ] );
      ( "probe",
        [ Alcotest.test_case "non-mutating RX probe" `Quick test_probe_non_mutating ] );
      ( "read-path",
        [
          Alcotest.test_case "zero-lock reads" `Quick test_olc_read_zero_locks;
          Alcotest.test_case "read after epoch invalidation" `Quick
            test_olc_read_after_invalidate;
          Alcotest.test_case "read inside an open unit falls back at once" `Quick
            test_read_inside_unit;
          Alcotest.test_case "yields and misses like the locked read" `Quick
            test_olc_costs_like_locked;
          Alcotest.test_case "conflict below an unchanged parent" `Quick
            test_conflict_below_unchanged_parent;
          Alcotest.test_case "store default matches Config.default" `Quick
            test_default_matches_config;
          Alcotest.test_case "give-up retry-loop lock trace" `Quick
            test_give_up_lock_trace;
        ] );
      ( "property",
        [
          Alcotest.test_case "optimistic scan = locked scan (3 seeds)" `Slow
            test_scan_equivalence;
          Alcotest.test_case "conflict re-descend collects no duplicates" `Quick
            test_redescend_no_duplicates;
          Alcotest.test_case "skipped bumps are caught" `Slow test_mutation_caught;
        ] );
    ]
