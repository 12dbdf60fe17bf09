module Engine = Sched.Engine
module Store = Shard.Store
module Shard_map = Shard.Shard_map
module Coordinator = Shard.Coordinator
module Router = Shard.Router
module Txn_mgr = Transact.Txn_mgr
module Record = Wal.Record

exception Failed of string

type expectation = {
  base : (int * string) list;
  attempted : (int, string) Hashtbl.t;
  mutable acked : (int * string) list list;
}

let expectation_of_base base = { base; attempted = Hashtbl.create 31; acked = [] }

type report = {
  write_boundaries : int;
  force_boundaries : int;
  points : int;
  crashes : int;
  torn_writes : int;
  torn_tails : int;
  units_finished : int;
  torn_repaired : int;
  survivors : int;
  acked_txns : int;
}

(* Units that BEGAN in the stable log but never ENDED.  After recovery this
   must be empty: §5.1 finishes every interrupted unit forward and logs its
   END.  (A BEGIN lost with the volatile tail never happened.) *)
let unfinished_units (st : Store.t) =
  let open_ = Hashtbl.create 4 in
  Wal.Log.iter st.Store.log (fun _ body ->
      match body with
      | Record.Reorg_begin { unit_id; _ } -> Hashtbl.replace open_ unit_id ()
      | Record.Reorg_end { unit_id; _ } -> Hashtbl.remove open_ unit_id
      | _ -> ());
  Hashtbl.fold (fun u () acc -> u :: acc) open_ []

let verify (stores : Store.t array) exp =
  (try
     Array.iter
       (fun (st : Store.t) -> Btree.Invariant.check ~alloc:st.Store.alloc st.Store.tree)
       stores
   with Btree.Invariant.Violation msg -> raise (Failed ("invariant: " ^ msg)));
  (* Store ranges ascend, so the concatenation is the merged keyspace. *)
  let contents =
    Array.to_list stores
    |> List.concat_map (fun (st : Store.t) -> Btree.Invariant.contents st.Store.tree)
  in
  let rec unordered = function
    | (a, _) :: ((b, _) :: _ as rest) -> a >= b || unordered rest
    | _ -> false
  in
  if unordered contents then raise (Failed "duplicate or out-of-order keys");
  (* Base records use even keys, concurrent users insert odd keys: the base
     set must survive exactly; an odd record must match an attempted insert
     (present-but-unacknowledged is fine: the commit was durable but the
     crash ate the acknowledgement). *)
  let evens, odds = List.partition (fun (k, _) -> k land 1 = 0) contents in
  if evens <> exp.base then raise (Failed "base records lost, changed or duplicated");
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt exp.attempted k with
      | Some v' when String.equal v v' -> ()
      | Some _ -> raise (Failed (Printf.sprintf "user record %d has a wrong payload" k))
      | None -> raise (Failed (Printf.sprintf "phantom record %d" k)))
    odds;
  (* All-or-nothing: every key of every acknowledged transaction survives,
     across all the stores it wrote. *)
  List.iter
    (fun group ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k odds with
          | Some v' when String.equal v v' -> ()
          | _ ->
            raise
              (Failed
                 (Printf.sprintf "acknowledged key %d lost (transaction of %d key(s))" k
                    (List.length group))))
        group)
    exp.acked;
  Array.iter
    (fun (st : Store.t) ->
      match unfinished_units st with
      | [] -> ()
      | us ->
        raise
          (Failed
             (Printf.sprintf "shard %d: %d reorganization unit(s) begun but never finished forward"
                (fst st.Store.shard) (List.length us))))
    stores

(* One fresh build of a swept workload.  The two entry points differ only
   in what they put here; the sweep below owns everything else. *)
type instance = {
  stores : Store.t array;
  base : (int * string) list;
  drive : Model.Checker.t option -> expectation -> unit;
      (* attach the checker, run the seeded workload to completion, then
         background writeback *)
  restart : unit -> Reorg.Recovery.outcome list;
      (* crash the machine, recover every store, finish the reorganizations
         (a checker attached by [drive] stays subscribed to the stores) *)
}

let sweep ?registry ?checker ~seed ~stride ~(build : Pager.Fault.t -> instance) () =
  if stride < 1 then invalid_arg "Torture: stride must be >= 1";
  (* One controller across every build, so its counters accumulate. *)
  let faults = Pager.Fault.create () in
  Option.iter (Pager.Fault.register_obs faults) registry;
  let points = ref 0 in
  let survivors = ref 0 in
  let units_finished = ref 0 in
  let torn_repaired = ref 0 in
  let acked_txns = ref 0 in

  let cycle plan label =
    incr points;
    try
      let inst = build faults in
      let exp = expectation_of_base inst.base in
      (* The conformance checker judges every cycle, the crashed ones too:
         [crash] drops the volatile model state exactly when the engine
         loses its own, and recovery's events rebuild the surviving tracks. *)
      Option.iter (fun c -> Model.Checker.cycle c label) checker;
      Pager.Fault.arm faults plan;
      let crashed =
        try
          inst.drive checker exp;
          Pager.Fault.disarm faults;
          false
        with Pager.Fault.Crash -> true
      in
      if crashed then begin
        Option.iter Model.Checker.crash checker;
        List.iter
          (fun (o : Reorg.Recovery.outcome) ->
            units_finished := !units_finished + o.Reorg.Recovery.units_finished;
            torn_repaired := !torn_repaired + o.Reorg.Recovery.torn_pages)
          (inst.restart ())
      end
      else incr survivors;
      acked_txns := !acked_txns + List.length exp.acked;
      verify inst.stores exp;
      Option.iter
        (fun c ->
          Model.Checker.finalize c;
          match Model.Checker.first_violation c with
          | Some v -> raise (Failed ("model: " ^ Model.Machine.violation_to_string v))
          | None -> ())
        checker
    with
    | Failed msg -> raise (Failed (label ^ ": " ^ msg))
    | e -> raise (Failed (label ^ ": " ^ Printexc.to_string e))
  in

  (* Fault-free dry run to discover the crashable boundary space: every page
     write on any store's disk and every advancing force of any store's log,
     after the initial build. *)
  let write_boundaries, force_boundaries =
    let inst = build faults in
    let sum f = Array.fold_left (fun acc st -> acc + f st) 0 inst.stores in
    let writes () = sum (fun st -> (Pager.Disk.stats st.Store.disk).Pager.Disk.writes) in
    let forces () = sum (fun st -> (Wal.Log.stats st.Store.log).Wal.Log.forced) in
    let w0 = writes () and f0 = forces () in
    inst.drive None (expectation_of_base inst.base);
    (writes () - w0, forces () - f0)
  in

  let k = ref 1 in
  while !k <= write_boundaries do
    let prng = Util.Rng.create (seed + (7919 * !k)) in
    cycle
      {
        Pager.Fault.no_faults with
        crash_after_writes = Some !k;
        torn_write = Util.Rng.bool prng;
        seed = seed + !k;
      }
      (Printf.sprintf "write-%d" !k);
    k := !k + stride
  done;
  let j = ref 1 in
  while !j <= force_boundaries do
    let prng = Util.Rng.create (seed + (104729 * !j)) in
    cycle
      {
        Pager.Fault.no_faults with
        crash_after_forces = Some !j;
        torn_tail = Util.Rng.bool prng;
        seed = seed + (2 * !j) + 1;
      }
      (Printf.sprintf "force-%d" !j);
    j := !j + stride
  done;
  {
    write_boundaries;
    force_boundaries;
    points = !points;
    crashes = Pager.Fault.crashes faults;
    torn_writes = Pager.Fault.torn_writes faults;
    torn_tails = Pager.Fault.torn_tails faults;
    units_finished = !units_finished;
    torn_repaired = !torn_repaired;
    survivors = !survivors;
    acked_txns = !acked_txns;
  }

let run ?registry ?tracer ?checker ?(config = Reorg.Config.default) ?(leaf_pages = 512)
    ?(n = 400) ?(users = 0) ?(pipeline = false) ~seed ~stride () =
  let olc = config.Reorg.Config.olc in
  let build faults =
    (* A deliberately tight pool: crash/recovery sweeps must survive eviction
       traffic (dirty victims, careful-writing prerequisite flushes) firing
       mid-workload, not just at the explicit flush points. *)
    let db, base =
      Scenario.aged ~faults ~page_size:512 ~leaf_pages ~capacity:48 ~seed ~n ~f1:0.3 ()
    in
    (* The reorganization plus [users] writers doing single-insert
       transactions on per-user disjoint odd keys, so the expected set is
       exact.  [attempted] is recorded before the insert is attempted,
       [acked] only once commit returned — a crash in between leaves the key
       in the "may or may not survive" set. *)
    let drive checker exp =
      let pipe = ref None in
      let hook eng ctx ~stop =
        for u = 0 to users - 1 do
          Engine.spawn eng ~name:(Printf.sprintf "user-%d" u) (fun () ->
              let rng = Util.Rng.create (seed + (101 * u) + 17) in
              while not (stop ()) do
                let key = (2 * ((users * Util.Rng.int rng 100_000) + u)) + 1 in
                if not (Hashtbl.mem exp.attempted key) then begin
                  let payload = Db.payload_for key in
                  Hashtbl.replace exp.attempted key payload;
                  let tx = Txn_mgr.begin_txn db.Db.mgr in
                  (try
                     Btree.Access.insert db.Db.access ~txn:tx ~key ~payload;
                     Txn_mgr.commit db.Db.mgr tx;
                     exp.acked <- [ (key, payload) ] :: exp.acked
                   with Transact.Lock_client.Deadlock_victim -> Txn_mgr.abort db.Db.mgr tx);
                  (* Under olc, read the key straight back without locks: the
                     optimistic descent races the reorganizer's units and the
                     crash plan alike. *)
                  if olc then begin
                    let rt = Txn_mgr.fresh_owner db.Db.mgr in
                    (try ignore (Btree.Access.read db.Db.access ~txn:rt key : string option)
                     with Transact.Lock_client.Deadlock_victim -> ());
                    Txn_mgr.finish_read_only db.Db.mgr rt
                  end
                end;
                Engine.sleep 3
              done)
        done;
        (* With the pipeline on, crash boundaries move INSIDE group-commit
           windows and elevator sweeps, and fuzzy checkpoints truncate the
           log mid-workload — the sweep then proves recovery across all of
           it. *)
        if pipeline then pipe := Some (Pipeline.attach ~ckpt_every:40 ~ctx eng db ~stop);
        (* The sweep's registry accumulates across cycles: only the
           reorganizer's counters join it, not the gauges of this cycle's
           fresh engine and store. *)
        Option.iter (Reorg.Metrics.register_obs ctx.Reorg.Ctx.metrics) registry
      in
      (* Each cycle builds a fresh store, so the optimistic path (and, with
         a checker, its oracle probe) is re-armed by the harness; crashes
         then land inside optimistic descents and the epoch invalidation
         must hold. *)
      Fun.protect
        ~finally:(fun () -> Option.iter Pipeline.detach !pipe)
        (fun () ->
          ignore (Scenario.run_reorg { Scenario.default with tracer; checker; config; hook } db));
      (* Background writeback: these page writes are crash boundaries too. *)
      Db.flush_all db
    in
    let restart () =
      Db.crash_now db;
      let ctx, outcome = Reorg.Recovery.restart ?registry ~access:db.Db.access ~config () in
      let eng = Engine.create () in
      Engine.set_tracer eng tracer;
      Engine.spawn eng ~name:"recovery-resume" (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx outcome));
      Engine.run eng;
      Db.flush_all db;
      [ outcome ]
    in
    { stores = [| db |]; base; drive; restart }
  in
  sweep ?registry ?checker ~seed ~stride ~build ()

(* An odd key inside shard [i]'s range, chosen by [draw].  The uniform maps
   built by {!Sharded.thinned} bound every shard inside [0, key_space). *)
let odd_key_in map ~key_space i draw =
  let lo, hi = Shard_map.range_of map i in
  let lo = max 0 (Option.value lo ~default:0) in
  let hi = min key_space (Option.value hi ~default:key_space) in
  let first = if lo land 1 = 1 then lo else lo + 1 in
  let count = (hi - first + 1) / 2 in
  if count <= 0 then None else Some (first + (2 * (draw mod count)))

let run_sharded ?checker ?(n = 300) ?(shards = 3) ?(users = 3) ?(xspan = 2) ~seed ~stride () =
  if xspan < 1 then invalid_arg "Torture.run_sharded: xspan must be >= 1";
  let key_space = 2 * n in
  let build faults =
    let t, base =
      Sharded.thinned ~faults ~page_size:512 ~capacity:48 ~seed ~n ~survive:0.45 ~shards ()
    in
    (* [shards] reorganizers and [users] clients on one engine.  Each client
       operation is one transaction inserting [xspan] odd keys in [xspan]
       distinct shards (when available), committed through the shard-ordered
       protocol. *)
    let drive checker exp =
      Option.iter
        (fun c ->
          Array.iteri (fun i st -> Model.Checker.attach c ~shard:i st) t.Sharded.stores;
          Model.Checker.attach_coordinator c t.Sharded.coord)
        checker;
      let eng = Engine.create () in
      let done_ = ref 0 in
      Array.iteri
        (fun i (st : Store.t) ->
          let ctx =
            Reorg.Ctx.make ~shard:(i, shards) ~access:st.Store.access
              ~config:Reorg.Config.default ()
          in
          Engine.spawn eng ~name:(Printf.sprintf "reorganizer-%d" i) (fun () ->
              ignore (Reorg.Driver.run ctx);
              incr done_))
        t.Sharded.stores;
      for u = 0 to users - 1 do
        Engine.spawn eng ~name:(Printf.sprintf "xuser-%d" u) (fun () ->
            let rng = Util.Rng.create (seed + (101 * u) + 17) in
            while !done_ < shards do
              let span = min xspan shards in
              (* [span] distinct shards, then one fresh odd key in each. *)
              let picked = ref [] in
              while List.length !picked < span do
                let s = Util.Rng.int rng shards in
                if not (List.mem s !picked) then picked := s :: !picked
              done;
              let group =
                List.filter_map
                  (fun s ->
                    match odd_key_in t.Sharded.map ~key_space s (Util.Rng.int rng 100_000) with
                    | Some k when not (Hashtbl.mem exp.attempted k) ->
                      Some (k, Store.payload_for k)
                    | _ -> None)
                  (List.sort compare !picked)
              in
              if group <> [] then begin
                (* No yield between these marks and the first insert below,
                   so no other user can pick the same keys in between. *)
                List.iter (fun (k, v) -> Hashtbl.replace exp.attempted k v) group;
                let x = Coordinator.begin_x t.Sharded.coord in
                try
                  List.iter
                    (fun (k, v) -> Router.insert t.Sharded.router x ~key:k ~payload:v)
                    group;
                  Coordinator.commit t.Sharded.coord x;
                  exp.acked <- group :: exp.acked
                with Transact.Lock_client.Deadlock_victim -> Coordinator.abort t.Sharded.coord x
              end;
              Engine.sleep 3
            done)
      done;
      Engine.run eng;
      Sharded.flush_all t
    in
    let restart () =
      Sharded.crash_now t;
      let recovered = Sharded.recover t in
      Sharded.resume_after_recovery t recovered;
      Array.to_list (Array.map snd recovered)
    in
    { stores = t.Sharded.stores; base; drive; restart }
  in
  sweep ?checker ~seed ~stride ~build ()
