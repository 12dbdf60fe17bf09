(* Experiment R1 — optimistic version-validated reads vs the locked
   Table-1 reader protocol.

   The same aged tree is reorganized twice while a pool of read-only user
   processes issues an identical fixed stream of point lookups and range
   scans (per-reader rngs on the [Workload.Mix] lattice, a fixed operation
   count rather than stop-on-report — so both arms read exactly the same
   key sequence even though they finish at different clocks).  The
   [locked] arm descends with the paper's S lock-coupling and RS give-up
   rule; the [olc] arm descends lock-free, validating {!Btree.Olc}
   per-node versions across scheduler yields and falling back to the
   locked path on conflict.  The claims the numbers must support: S-mode
   lock acquires collapse to a small residue (the fallback path plus the
   reorganizer's own scans), the olc counters show committed optimistic
   reads doing the work instead, and every reader's result digest is
   byte-identical across the arms — the optimistic path returns exactly
   what the locked path returns.  ci/check.sh pins the ratio at <= 0.30x
   and the digest equality. *)

module Engine = Sched.Engine
module Lock_mgr = Lockmgr.Lock_mgr
module Mode = Lockmgr.Mode
module Txn_mgr = Transact.Txn_mgr
module Access = Btree.Access

(* Order-sensitive per-reader rolling digest; readers are xor-combined so
   the total is independent of reader interleaving. *)
let mix_into d v = d := ((!d * 31) + Hashtbl.hash v) land 0x3FFFFFFF

let run_arm ~table ~use_olc ~seed ~n ~readers ~reads_per_reader () =
  let db, _ = Scenario.aged ~seed ~n ~f1:0.3 () in
  let olc = Btree.Tree.olc db.Db.tree in
  (* Snapshot after the build: the arms compare only the concurrent phase,
     not the identical initial load. *)
  let s0, _, _ = Lock_mgr.mode_tally db.Db.locks Mode.S in
  let l0 = Lock_mgr.stats db.Db.locks in
  let or0 = Btree.Olc.reads olc in
  let rt0 = Btree.Olc.retries olc in
  let fb0 = Btree.Olc.fallbacks olc in
  let vb0 = Btree.Olc.version_bumps olc in
  let reads = ref 0 and scans = ref 0 and digest = ref 0 in
  let spawn_readers eng _ctx ~stop:_ =
    for u = 0 to readers - 1 do
      Engine.spawn eng
        ~name:(Printf.sprintf "reader-%d" u)
        (fun () ->
          let rng = Util.Rng.create (seed + 1 + (u * 7919)) in
          let d = ref 0 in
          (* The workload is read-only, so every key's answer is fixed for
             the whole run: a deadlock-victim restart re-reads the same
             value, and the digests stay arm-identical. *)
          let rec with_read_txn f =
            let txn = Txn_mgr.fresh_owner db.Db.mgr in
            match f txn with
            | v ->
              Txn_mgr.finish_read_only db.Db.mgr txn;
              v
            | exception Transact.Lock_client.Deadlock_victim ->
              Txn_mgr.finish_read_only db.Db.mgr txn;
              Engine.sleep 1;
              with_read_txn f
          in
          for i = 1 to reads_per_reader do
            (* Every 16th operation is a range scan over the side-pointer
               chain; the rng draw happens before the branch so the key
               stream is one fixed lattice. *)
            if i mod 16 = 0 then begin
              let lo = 2 * Util.Rng.int rng n in
              let recs =
                with_read_txn (fun txn ->
                    Access.range_read db.Db.access ~txn ~lo ~hi:(lo + 64))
              in
              incr scans;
              mix_into d
                (lo, List.map (fun r -> (r.Btree.Leaf.key, r.Btree.Leaf.payload)) recs)
            end
            else begin
              let k = 2 * Util.Rng.int rng n in
              let res = with_read_txn (fun txn -> Access.read db.Db.access ~txn k) in
              incr reads;
              mix_into d (k, res)
            end;
            Engine.sleep 1
          done;
          digest := !digest lxor !d)
    done
  in
  let r =
    Scenario.run_reorg
      { Scenario.default with config = { Reorg.Config.default with olc = use_olc };
        hook = spawn_readers }
      db
  in
  Db.flush_all db;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  let s1, _, _ = Lock_mgr.mode_tally db.Db.locks Mode.S in
  let l1 = Lock_mgr.stats db.Db.locks in
  let s_acquires = s1 - s0 and acquires = l1.Lock_mgr.acquires - l0.Lock_mgr.acquires in
  let num = Util.Table.num in
  Util.Table.add_row table
    [ Util.Table.text (if use_olc then "olc" else "locked"); num !reads; num !scans;
      { Util.Table.value = Int !digest; text = Printf.sprintf "%08x" !digest };
      num s_acquires; num acquires;
      num (Btree.Olc.reads olc - or0); num (Btree.Olc.retries olc - rt0);
      num (Btree.Olc.fallbacks olc - fb0); num (Btree.Olc.version_bumps olc - vb0);
      num (l1.Lock_mgr.instant_checks - l0.Lock_mgr.instant_checks); num r.Scenario.ticks ];
  (!digest, s_acquires, acquires)

let run () =
  let table =
    Util.Table.create
      ~title:
        "R1 — optimistic version-validated reads vs the locked reader protocol\n\
         (same aged tree, reorganization with 6 read-only users, identical key streams)"
      [ ("arm", Util.Table.Left); ("reads", Util.Table.Right);
        ("scans", Util.Table.Right); ("digest", Util.Table.Right);
        ("S acq", Util.Table.Right); ("acq", Util.Table.Right);
        ("olc reads", Util.Table.Right); ("retries", Util.Table.Right);
        ("fallbacks", Util.Table.Right); ("bumps", Util.Table.Right);
        ("probes", Util.Table.Right); ("ticks", Util.Table.Right) ]
  in
  let seed = 31 and n = 1500 and readers = 6 and reads_per_reader = 400 in
  let l_digest, l_s, l_acq = run_arm ~table ~use_olc:false ~seed ~n ~readers ~reads_per_reader () in
  let o_digest, o_s, o_acq = run_arm ~table ~use_olc:true ~seed ~n ~readers ~reads_per_reader () in
  Util.Table.add_rule table;
  let ratio a b = Util.Table.ratio (if b = 0 then 1.0 else float_of_int a /. float_of_int b) in
  let none = Util.Table.none in
  Util.Table.add_row table
    [ Util.Table.text "olc/locked"; none; none;
      Util.Table.text (if o_digest = l_digest then "equal" else "DIFFER");
      ratio o_s l_s; ratio o_acq l_acq; none; none; none; none; none; none ];
  table
