(* Experiment S1 — keyspace-sharded reorganization scaling.

   One fixed sparse workload (n records thinned to [survive]) is partitioned
   into 1, 2, 4 and 8 keyspace shards.  Each configuration runs two phases:

   - the embarrassingly-parallel phase: one engine per shard, each running
     that shard's reorganizer to completion.  Shards share nothing, so the
     makespan (max per-shard clock) is the aggregate figure a machine running
     them side by side would show — this is the number that must scale.
   - the contended phase: a fresh assembly of the same workload, every
     shard's reorganizer on ONE engine together with cross-shard client
     transactions committing through the shard-ordered 2PL protocol.

   One table row per shard count. *)

module Store = Shard.Store

let seed = 42
let default_n = 4000
let survive = 0.35
let default_counts = [ 1; 2; 4; 8 ]

let run ?(n = default_n) ?(counts = default_counts) () =
  let table =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "S1 — keyspace-sharded reorganization: %d records thinned to %.0f%%,\n\
            partitioned across N shards (parallel phase: engine per shard;\n\
            mixed phase: shared engine + 6 cross-shard 2PL users)"
           n (100.0 *. survive))
      [ ("shards", Util.Table.Right); ("makespan", Util.Table.Right);
        ("speedup", Util.Table.Right); ("total ticks", Util.Table.Right);
        ("io cost", Util.Table.Right); ("mixed ticks", Util.Table.Right);
        ("committed", Util.Table.Right); ("aborted", Util.Table.Right) ]
  in
  let base = ref 0.0 in (* first point's makespan *)
  List.iter
    (fun shards ->
      (* Phase A: parallel reorganization, engine per shard. *)
      let t, expected = Sharded.thinned ~seed ~n ~survive ~shards () in
      let outcome = Sharded.reorg_parallel t in
      Sharded.check_invariants t;
      if Sharded.contents t <> expected then
        failwith (Printf.sprintf "exp_shard: %d-shard parallel phase lost records" shards);
      let io =
        Array.fold_left
          (fun acc (st : Store.t) -> acc +. Pager.Disk.io_cost (Pager.Disk.stats st.Store.disk))
          0.0 t.Sharded.stores
      in
      (* Phase B: fresh assembly, reorganizers and cross-shard users contending
         on one engine.  Same total client load at every shard count. *)
      let t2, _ = Sharded.thinned ~seed ~n ~survive ~shards () in
      let mixed, ustats =
        Sharded.reorg_with_users ~users:6 ~user_ops:40 ~seed:(seed + 1) ~key_space:(2 * n) t2
      in
      Sharded.check_invariants t2;
      let makespan = outcome.Sharded.makespan in
      if !base = 0.0 then base := float_of_int makespan;
      Util.Table.add_row table
        [ Util.Table.num shards; Util.Table.num makespan;
          Util.Table.ratio (!base /. float_of_int makespan);
          Util.Table.num outcome.Sharded.total_ticks; Util.Table.float ~digits:0 io;
          Util.Table.num mixed.Sharded.makespan;
          Util.Table.num ustats.Workload.Mix.committed;
          Util.Table.num ustats.Workload.Mix.aborted ])
    counts;
  table
