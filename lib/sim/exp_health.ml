(* Experiment H1 — online tree-health telemetry through a sparsification
   and its repair.

   A densely loaded tree is thinned by transactional uniform deletes (the
   paper's motivating state: sparsely-populated leaves), then reorganized
   while a sampler process on the same scheduler records deterministic
   health snapshots every few ticks.  Two threshold watches are armed up
   front — "utilization < 0.55" and "fragmentation > 0.30" — and must fire
   on the degraded tree; the sampled series then shows utilization climbing
   back to f2 as the passes run; one table row per snapshot. *)

module Buffer_pool = Pager.Buffer_pool
module Health = Obs.Health
module Sampler = Obs.Health.Sampler

let run () =
  let db, expected = Scenario.thinned ~seed:42 ~n:6000 ~survive:0.35 () in
  let registry = Obs.Registry.create () in
  let tracer = Obs.Trace.create () in
  let health = db.Db.health in
  let sampler = Sampler.create ~tracer health in
  Sampler.add_probe sampler "pool.flushes" (fun () ->
      (Buffer_pool.stats db.Db.pool).Buffer_pool.s_flushes);
  Sampler.add_probe sampler "wal.bytes" (fun () -> (Wal.Log.stats db.Db.log).Wal.Log.bytes);
  (* Fires are counted by the tracker and shown per sample. *)
  Health.watch health ~name:"util<0.55" ~signal:Health.Utilization ~op:`Lt ~threshold:0.55
    ignore;
  Health.watch health ~name:"frag>0.30" ~signal:Health.Fragmentation ~op:`Gt
    ~threshold:0.30 ignore;
  let before = Health.stats health in
  ignore
    (Scenario.run_reorg
       { Scenario.default with
         config = Reorg.Config.paper; registry = Some registry; tracer = Some tracer;
         sampler = Some sampler; sample_every = 25 }
       db);
  let after = Health.stats health in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  let table =
    Util.Table.create
      ~title:
        "H1 — online tree-health telemetry: bulk-delete sparsification, then reorg\n\
         (incremental tracker, sampled every 25 logical ticks; no full-tree scans)"
      [ ("sample", Util.Table.Right); ("tick", Util.Table.Right);
        ("leaves", Util.Table.Right); ("util", Util.Table.Right);
        ("frag", Util.Table.Right); ("backlog", Util.Table.Right);
        ("free pages", Util.Table.Right); ("watch fired", Util.Table.Left) ]
  in
  let module T = Util.Table in
  List.iteri
    (fun i (s : Sampler.snapshot) ->
      T.add_row table
        [ T.num i; T.num s.Sampler.at; T.num s.Sampler.leaves; T.pct s.Sampler.utilization;
          T.pct s.Sampler.fragmentation; T.num s.Sampler.backlog; T.num s.Sampler.free_pages;
          T.text (String.concat " " s.Sampler.fired) ])
    (Sampler.snapshots sampler);
  T.add_rule table;
  let summary label (h : Health.stats) fired =
    T.add_row table
      [ T.text label; T.none; T.num h.Health.leaves; T.pct h.Health.utilization;
        T.pct h.Health.fragmentation; T.num h.Health.backlog; T.num h.Health.free_pages; fired ]
  in
  summary "before" before T.none;
  summary "after" after
    (T.text
       (Printf.sprintf "%d fire(s), %d unit(s), %d switch(es)" after.Health.watch_fires
          after.Health.units after.Health.switches));
  table
