(* Experiment G1 — group commit and the asynchronous I/O pipeline.

   The same aged tree is reorganized twice under identical concurrent
   update-heavy user traffic.  The [sync] arm commits through the default
   synchronous path: every transaction commit forces the log, and dirty
   pages reach disk only through eviction and careful-writing prerequisite
   flushes — a random write stream.  The [pipelined] arm attaches the
   asynchronous durability pipeline: commit forces park on the group-commit
   batcher (one stable append per scheduler window covers every commit that
   arrived in it), a background elevator drains the buffer pool in
   ascending-page-id sweeps, and a fuzzy checkpointer bounds replay and
   truncates the WAL.  The claim the numbers must support: [wal.forced]
   drops by roughly the coalescing factor, the write stream shifts from
   random to sequential, and the io-cost model's total falls — without
   giving up any durability (the torture sweeps crash inside the same
   windows). *)

module Engine = Sched.Engine

let run_arm ~table ~pipelined ~seed ~n ~users () =
  let db, _ = Scenario.aged ~seed ~n ~f1:0.3 () in
  (* Snapshot after the build: the arms compare only the reorganization
     phase, not the identical initial load. *)
  let d0 = Pager.Disk.stats db.Db.disk in
  let w0 = Wal.Log.stats db.Db.log in
  let ckpts = ref 0 and pipe = ref None in
  let attach_pipeline eng ctx ~stop =
    (* A 4-tick commit window batches the four users' commits; a 24-tick
       elevator period lets re-dirtied pages merge into one write per
       sweep instead of being rewritten every few ticks. *)
    pipe := Some (Pipeline.attach ~gc_every:4 ~flush_every:24 ~flush_limit:8 eng db ~stop);
    (* The checkpointer is spawned here rather than through the pipeline so
       the arm can count how many checkpoints bounded replay. *)
    Engine.spawn eng ~name:"checkpointer" (fun () ->
        while not (stop ()) do
          Engine.sleep 150;
          if not (stop ()) then begin
            Reorg.Ctx.checkpoint ctx;
            incr ckpts
          end
        done)
  in
  let run =
    { Scenario.default with users; user_mix = Workload.Mix.update_heavy; seed = seed + 1;
      hook = (if pipelined then attach_pipeline else Scenario.default.hook) }
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Option.iter Pipeline.detach !pipe)
      (fun () -> Scenario.run_reorg run db)
  in
  let gc =
    match !pipe with
    | Some t -> Pipeline.stats t
    | None -> { Wal.Group_commit.batches = 0; coalesced = 0; max_batch = 0 }
  in
  Db.flush_all db;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  let d1 = Pager.Disk.stats db.Db.disk in
  let w1 = Wal.Log.stats db.Db.log in
  let dd =
    {
      Pager.Disk.reads = d1.Pager.Disk.reads - d0.Pager.Disk.reads;
      writes = d1.Pager.Disk.writes - d0.Pager.Disk.writes;
      seq_reads = d1.Pager.Disk.seq_reads - d0.Pager.Disk.seq_reads;
      rand_reads = d1.Pager.Disk.rand_reads - d0.Pager.Disk.rand_reads;
      seq_writes = d1.Pager.Disk.seq_writes - d0.Pager.Disk.seq_writes;
      rand_writes = d1.Pager.Disk.rand_writes - d0.Pager.Disk.rand_writes;
    }
  in
  let forced = w1.Wal.Log.forced - w0.Wal.Log.forced in
  Util.Table.add_row table
    [ Util.Table.text (if pipelined then "pipelined" else "sync"); Util.Table.num forced;
      Util.Table.num gc.Wal.Group_commit.batches; Util.Table.num gc.Wal.Group_commit.coalesced;
      Util.Table.num gc.Wal.Group_commit.max_batch; Util.Table.num !ckpts;
      Util.Table.num (Wal.Log.truncated_records db.Db.log);
      Util.Table.num dd.Pager.Disk.seq_writes; Util.Table.num dd.Pager.Disk.rand_writes;
      Util.Table.float ~digits:1 (Pager.Disk.io_cost dd);
      Util.Table.num r.Scenario.users.Workload.Mix.committed ];
  (forced, dd)

let run () =
  let table =
    Util.Table.create
      ~title:
        "G1 — group commit + async I/O pipeline vs synchronous durability\n\
         (same aged tree, reorganization with 4 concurrent update-heavy users)"
      [ ("arm", Util.Table.Left); ("forces", Util.Table.Right);
        ("gc batches", Util.Table.Right); ("coalesced", Util.Table.Right);
        ("max batch", Util.Table.Right); ("ckpts", Util.Table.Right);
        ("wal trunc", Util.Table.Right); ("seq w", Util.Table.Right);
        ("rand w", Util.Table.Right); ("io cost", Util.Table.Right);
        ("commits", Util.Table.Right) ]
  in
  let seed = 42 and n = 1500 and users = 4 in
  let sync_forced, sync = run_arm ~table ~pipelined:false ~seed ~n ~users () in
  let piped_forced, piped = run_arm ~table ~pipelined:true ~seed ~n ~users () in
  Util.Table.add_rule table;
  let ratio a b = Util.Table.ratio (if b = 0 then 1.0 else float_of_int a /. float_of_int b) in
  Util.Table.add_row table
    [ Util.Table.text "pipelined/sync"; ratio piped_forced sync_forced; Util.Table.none;
      Util.Table.none; Util.Table.none; Util.Table.none; Util.Table.none;
      ratio piped.Pager.Disk.seq_writes sync.Pager.Disk.seq_writes;
      ratio piped.Pager.Disk.rand_writes sync.Pager.Disk.rand_writes;
      Util.Table.ratio (Pager.Disk.io_cost piped /. Float.max 1.0 (Pager.Disk.io_cost sync));
      Util.Table.none ];
  table
