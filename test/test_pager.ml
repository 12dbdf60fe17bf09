(* Pager tests: disk accounting, buffer pool, careful writing, allocator. *)

module Page = Pager.Page
module Disk = Pager.Disk
module Backend = Pager.Backend
module Fault = Pager.Fault
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc

let mk ?(pages = 16) ?(page_size = 256) () =
  let disk = Disk.create ~initial_pages:pages ~page_size () in
  (disk, Buffer_pool.create (Backend.of_disk disk))

(* First u16 slot past the pager header — scratch space for the tests. *)
let uoff = Page.header_size + 3

let test_page_accessors () =
  let p = Page.create ~size:256 in
  Page.set_u16 p 20 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Page.get_u16 p 20);
  Page.set_u32 p 30 0xFFFFFFFF;
  Alcotest.(check int) "u32 max" 0xFFFFFFFF (Page.get_u32 p 30);
  Page.set_key p 40 (-123456789);
  Alcotest.(check int) "negative key" (-123456789) (Page.get_key p 40);
  Page.set_lsn p 77L;
  Alcotest.(check int64) "lsn" 77L (Page.lsn p);
  Alcotest.(check int) "kind default" Page.kind_free (Page.kind p)

let test_disk_rw_and_stats () =
  let disk, _ = mk () in
  let p = Page.create ~size:256 in
  Page.set_kind p 1;
  Disk.write disk 3 p;
  let q = Disk.read disk 3 in
  Alcotest.(check bool) "roundtrip" true (Page.equal p q);
  Disk.reset_stats disk;
  ignore (Disk.read disk 5);
  ignore (Disk.read disk 6);
  ignore (Disk.read disk 9);
  let s = Disk.stats disk in
  Alcotest.(check int) "reads" 3 s.Disk.reads;
  Alcotest.(check int) "sequential" 1 s.Disk.seq_reads;
  Alcotest.(check int) "random" 2 s.Disk.rand_reads

let test_disk_bounds () =
  let disk, _ = mk ~pages:4 () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Disk: page 9 out of range (0..3)")
    (fun () -> ignore (Disk.read disk 9))

let test_pool_write_back_and_crash () =
  let disk, pool = mk () in
  let p = Buffer_pool.get pool 2 in
  Page.set_u16 p 50 4242;
  Buffer_pool.mark_dirty pool 2;
  (* Not flushed: disk still has zeros. *)
  Alcotest.(check int) "disk stale" 0 (Page.get_u16 (Disk.peek disk 2) 50);
  Buffer_pool.crash pool;
  let p2 = Buffer_pool.get pool 2 in
  Alcotest.(check int) "lost on crash" 0 (Page.get_u16 p2 50);
  (* Now with a flush, it survives. *)
  Page.set_u16 p2 50 4242;
  Buffer_pool.mark_dirty pool 2;
  Buffer_pool.flush_page pool 2;
  Buffer_pool.crash pool;
  Alcotest.(check int) "survives" 4242 (Page.get_u16 (Buffer_pool.get pool 2) 50)

let test_wal_hook_called () =
  let _, pool = mk () in
  let forced = ref (-1L) in
  Buffer_pool.set_before_write pool (fun lsn -> forced := lsn);
  let p = Buffer_pool.get pool 1 in
  Page.set_lsn p 99L;
  Buffer_pool.mark_dirty pool 1;
  Buffer_pool.flush_page pool 1;
  Alcotest.(check int64) "wal rule" 99L !forced

let test_careful_writing_order () =
  let disk, pool = mk () in
  (* org (page 4) must not reach disk before dest (page 5). *)
  let dest = Buffer_pool.get pool 5 in
  Page.set_u16 dest uoff 1;
  Buffer_pool.mark_dirty pool 5;
  let org = Buffer_pool.get pool 4 in
  Page.set_u16 org uoff 2;
  Buffer_pool.mark_dirty pool 4;
  Buffer_pool.add_dependency pool ~blocked:4 ~prereq:5;
  Buffer_pool.flush_page pool 4;
  (* Flushing org must have flushed dest first. *)
  Alcotest.(check int) "dest on disk" 1 (Page.get_u16 (Disk.peek disk 5) uoff);
  Alcotest.(check int) "org on disk" 2 (Page.get_u16 (Disk.peek disk 4) uoff)

let test_careful_writing_cycle () =
  let _, pool = mk () in
  let a = Buffer_pool.get pool 1 in
  Page.set_u16 a uoff 1;
  Buffer_pool.mark_dirty pool 1;
  let b = Buffer_pool.get pool 2 in
  Page.set_u16 b uoff 2;
  Buffer_pool.mark_dirty pool 2;
  Buffer_pool.add_dependency pool ~blocked:1 ~prereq:2;
  (* The reverse dependency closes a cycle — the swap case. *)
  let raised =
    try
      Buffer_pool.add_dependency pool ~blocked:2 ~prereq:1;
      false
    with Buffer_pool.Cycle _ -> true
  in
  Alcotest.(check bool) "cycle detected" true raised

let test_on_durable () =
  let _, pool = mk () in
  let fired = ref 0 in
  (* Clean page: fires immediately. *)
  Buffer_pool.on_durable pool 7 (fun () -> incr fired);
  Alcotest.(check int) "immediate" 1 !fired;
  let p = Buffer_pool.get pool 7 in
  Page.set_u16 p uoff 9;
  Buffer_pool.mark_dirty pool 7;
  Buffer_pool.on_durable pool 7 (fun () -> incr fired);
  Alcotest.(check int) "deferred" 1 !fired;
  Buffer_pool.flush_page pool 7;
  Alcotest.(check int) "fires on flush" 2 !fired

(* The checksum covers every byte from the LSN (offset 5) to the end, and
   nothing before it.  Page sizes 64..67 give every tail length past the
   32-bit words; 512 is the benchmark page. *)
let test_checksum_coverage () =
  let in_range c = c >= 1 && c < 1 lsl 32 in
  List.iter
    (fun size ->
      let rng = Util.Rng.create size in
      let p = Page.create ~size in
      for i = 0 to size - 1 do
        Page.set_u8 p i (Util.Rng.int rng 256)
      done;
      let base = Page.body_checksum p in
      Alcotest.(check bool) (Printf.sprintf "size %d in range" size) true (in_range base);
      for off = 0 to size - 1 do
        for bit = 0 to 7 do
          let v = Page.get_u8 p off in
          Page.set_u8 p off (v lxor (1 lsl bit));
          let c = Page.body_checksum p in
          Page.set_u8 p off v;
          if not (in_range c) then Alcotest.failf "size %d: checksum %d out of range" size c;
          if off < Page.torn_prefix && c <> base then
            Alcotest.failf "size %d: bit %d of byte %d (prefix) changed the checksum" size bit off;
          if off >= Page.torn_prefix && c = base then
            Alcotest.failf "size %d: bit %d of byte %d left the checksum unchanged" size bit off
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "size %d zero page in range" size)
        true
        (in_range (Page.body_checksum (Page.create ~size))))
    [ 64; 65; 66; 67; 512 ]

(* Flushing a prerequisite discharges exactly the entries that name it,
   including after a blocked page was forgotten and re-added elsewhere. *)
let test_discharge_by_reverse_index () =
  let _, pool = mk () in
  List.iter
    (fun pid ->
      let p = Buffer_pool.get pool pid in
      Page.set_u16 p uoff pid;
      Buffer_pool.mark_dirty pool pid)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* Page 1 blocks 2, 3 and 4; 3 also waits on 8; 6 -> 7 is unrelated. *)
  List.iter (fun b -> Buffer_pool.add_dependency pool ~blocked:b ~prereq:1) [ 2; 3; 4 ];
  Buffer_pool.add_dependency pool ~blocked:3 ~prereq:8;
  Buffer_pool.add_dependency pool ~blocked:6 ~prereq:7;
  (* Page 4 is recycled: its constraint on 1 is dropped and it now waits on 5. *)
  Buffer_pool.forget_dependencies pool 4;
  Buffer_pool.add_dependency pool ~blocked:4 ~prereq:5;
  Buffer_pool.flush_page pool 1;
  for pid = 0 to 15 do
    if List.mem 1 (Buffer_pool.prereqs pool pid) then
      Alcotest.failf "page %d still lists the flushed prerequisite" pid
  done;
  let prereqs pid = Buffer_pool.prereqs pool pid in
  Alcotest.(check (list int)) "2 released" [] (prereqs 2);
  Alcotest.(check (list int)) "3 keeps its other prereq" [ 8 ] (prereqs 3);
  Alcotest.(check (list int)) "4 keeps its new prereq" [ 5 ] (prereqs 4);
  Alcotest.(check (list int)) "unrelated entry intact" [ 7 ] (prereqs 6);
  let cycle ~blocked ~prereq =
    try
      Buffer_pool.add_dependency ~force:true pool ~blocked ~prereq;
      false
    with Buffer_pool.Cycle _ -> true
  in
  Alcotest.(check bool) "live edge still closes a cycle" true (cycle ~blocked:7 ~prereq:6);
  Alcotest.(check bool) "re-added edge still closes a cycle" true (cycle ~blocked:5 ~prereq:4);
  Alcotest.(check bool) "discharged edge closes none" false (cycle ~blocked:1 ~prereq:2);
  Buffer_pool.flush_page pool 5;
  Alcotest.(check (list int)) "4 released by its new prereq" [] (prereqs 4)

let test_eviction () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:4 (Backend.of_disk disk) in
  for pid = 0 to 7 do
    let p = Buffer_pool.get pool pid in
    Page.set_u16 p uoff pid;
    Buffer_pool.mark_dirty pool pid
  done;
  Alcotest.(check bool) "capacity respected" true (Buffer_pool.frame_count pool <= 4);
  (* Dirty evicted pages reached disk and re-read correctly. *)
  for pid = 0 to 7 do
    Alcotest.(check int) "value" pid (Page.get_u16 (Buffer_pool.get pool pid) uoff)
  done

let test_pin_blocks_eviction () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:2 (Backend.of_disk disk) in
  let p0 = Buffer_pool.pin pool 0 in
  let p1 = Buffer_pool.pin pool 1 in
  Alcotest.check_raises "all pinned" (Failure "Buffer_pool: all frames pinned") (fun () ->
      ignore (Buffer_pool.get pool 2));
  ignore p0;
  ignore p1;
  Buffer_pool.unpin pool 0;
  ignore (Buffer_pool.get pool 2);
  Buffer_pool.unpin pool 1

let test_write_stats_and_cost () =
  let disk, _ = mk () in
  let p = Page.create ~size:256 in
  Disk.reset_stats disk;
  Disk.write disk 3 p;
  Disk.write disk 4 p;
  Disk.write disk 5 p;
  Disk.write disk 9 p;
  let s = Disk.stats disk in
  Alcotest.(check int) "writes" 4 s.Disk.writes;
  Alcotest.(check int) "sequential" 2 s.Disk.seq_writes;
  Alcotest.(check int) "random" 2 s.Disk.rand_writes;
  (* Cost model: 2 random (seek+transfer) + 2 sequential (transfer). *)
  Alcotest.(check (float 1e-9)) "io cost" 24.0 (Disk.io_cost s);
  Alcotest.(check (float 1e-9)) "custom cost" 10.0
    (Disk.io_cost ~seek_cost:4.0 ~transfer_cost:0.5 s)

let test_split_rw_cursors () =
  (* Reads and writes keep independent head cursors: a read interleaved
     into an elevator write run must not turn the next write random (and
     vice versa). *)
  let disk, _ = mk () in
  let p = Page.create ~size:256 in
  Disk.reset_stats disk;
  Disk.write disk 3 p;
  ignore (Disk.read disk 7);
  Disk.write disk 4 p;
  ignore (Disk.read disk 8);
  Disk.write disk 5 p;
  let s = Disk.stats disk in
  Alcotest.(check int) "writes stay sequential across reads" 2 s.Disk.seq_writes;
  Alcotest.(check int) "first write is random" 1 s.Disk.rand_writes;
  Alcotest.(check int) "reads stay sequential across writes" 1 s.Disk.seq_reads;
  Alcotest.(check int) "first read is random" 1 s.Disk.rand_reads

let test_flush_elevator_order () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:16 (Backend.of_disk disk) in
  List.iter
    (fun pid ->
      let p = Buffer_pool.get pool pid in
      Page.set_u16 p uoff pid;
      Buffer_pool.mark_dirty pool pid)
    [ 9; 2; 11; 4; 10 ];
  Disk.reset_stats disk;
  (* First sweep: limited batch in ascending-pid order from the hand. *)
  Alcotest.(check int) "first batch" 3 (Buffer_pool.flush_elevator ~limit:3 pool);
  Alcotest.(check (list int)) "remaining dirty" [ 10; 11 ] (Buffer_pool.dirty_pages pool);
  (* Second sweep resumes at the hand and drains the rest. *)
  Alcotest.(check int) "second batch" 2 (Buffer_pool.flush_elevator pool);
  Alcotest.(check (list int)) "clean" [] (Buffer_pool.dirty_pages pool);
  let s = Disk.stats disk in
  Alcotest.(check int) "adjacent pids coalesced sequentially" 2 s.Disk.seq_writes;
  List.iter
    (fun pid ->
      Alcotest.(check int) (Printf.sprintf "page %d on disk" pid) pid
        (Page.get_u16 (Disk.peek disk pid) uoff))
    [ 2; 4; 9; 10; 11 ]

let test_dep_chain () =
  (* 1 blocked on 2 blocked on 3 blocked on 4: flushing the most blocked
     page must drive the whole chain, prerequisites first, and fire the
     on_durable callbacks in that order. *)
  let disk, pool = mk () in
  let chain = [ 1; 2; 3; 4 ] in
  List.iter
    (fun pid ->
      let p = Buffer_pool.get pool pid in
      Page.set_u16 p uoff (10 + pid);
      Buffer_pool.mark_dirty pool pid)
    chain;
  Buffer_pool.add_dependency pool ~blocked:1 ~prereq:2;
  Buffer_pool.add_dependency pool ~blocked:2 ~prereq:3;
  Buffer_pool.add_dependency pool ~blocked:3 ~prereq:4;
  (* Closing the loop anywhere along the chain is refused. *)
  let cyclic = try Buffer_pool.add_dependency pool ~blocked:4 ~prereq:1; false
    with Buffer_pool.Cycle _ -> true
  in
  Alcotest.(check bool) "transitive cycle refused" true cyclic;
  let fired = ref [] in
  List.iter (fun pid -> Buffer_pool.on_durable pool pid (fun () -> fired := pid :: !fired)) chain;
  Buffer_pool.flush_page pool 1;
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Printf.sprintf "page %d on disk" pid)
        (10 + pid)
        (Page.get_u16 (Disk.peek disk pid) uoff))
    chain;
  Alcotest.(check (list int)) "durable callbacks prereq-first" [ 4; 3; 2; 1 ] (List.rev !fired)

let test_fault_crash_boundary () =
  let disk = Disk.create ~initial_pages:16 ~page_size:256 () in
  let fault = Fault.create () in
  let b = Backend.faulty ~fault (Backend.of_disk disk) in
  let p = Page.create ~size:256 in
  Page.set_u16 p uoff 7;
  Fault.arm fault { Fault.no_faults with Fault.crash_after_writes = Some 2 };
  Backend.write b 1 p;
  let crashed = try Backend.write b 2 p; false with Fault.Crash -> true in
  Alcotest.(check bool) "dies on 2nd write" true crashed;
  (* The tripping write itself was applied in full before the crash. *)
  Alcotest.(check int) "tripping write applied" 7 (Page.get_u16 (Disk.peek disk 2) uoff);
  (* The dead machine refuses all I/O until revived. *)
  let dead = try ignore (Backend.read b 1); false with Fault.Crash -> true in
  Alcotest.(check bool) "dead after crash" true dead;
  Fault.revive fault;
  Alcotest.(check int) "alive after reboot" 7 (Page.get_u16 (Backend.read b 1) uoff);
  Alcotest.(check int) "one crash counted" 1 (Fault.crashes fault)

let test_torn_write_detect_and_repair () =
  let disk = Disk.create ~initial_pages:16 ~page_size:256 () in
  let fault = Fault.create () in
  let b = Backend.faulty ~fault (Backend.of_disk disk) in
  let pool = Buffer_pool.create b in
  let p = Buffer_pool.get pool 2 in
  Page.set_u16 p uoff 41;
  Buffer_pool.mark_dirty pool 2;
  Buffer_pool.flush_page pool 2;
  (* Re-dirty and tear the next write: header (with the new checksum)
     lands, the body keeps the old contents. *)
  let p = Buffer_pool.get pool 2 in
  Page.set_u16 p uoff 42;
  Buffer_pool.mark_dirty pool 2;
  Fault.arm fault
    { Fault.no_faults with Fault.crash_after_writes = Some 1; torn_write = true; seed = 7 };
  let crashed = try Buffer_pool.flush_page pool 2; false with Fault.Crash -> true in
  Alcotest.(check bool) "crashed at boundary" true crashed;
  Alcotest.(check int) "torn write counted" 1 (Fault.torn_writes fault);
  Fault.revive fault;
  (* An ordinary load sees the checksum mismatch and refuses the page. *)
  let pool2 = Buffer_pool.create b in
  let torn = try ignore (Buffer_pool.get pool2 2); false
    with Buffer_pool.Torn_page 2 -> true
  in
  Alcotest.(check bool) "torn page detected" true torn;
  (* Recovery's read-repair accepts it with a zeroed LSN and a dirty frame,
     so the whole log replays against the stale body. *)
  let pool3 = Buffer_pool.create b in
  Buffer_pool.set_read_repair pool3 true;
  let q = Buffer_pool.get pool3 2 in
  Alcotest.(check int64) "lsn zeroed" 0L (Page.lsn q);
  Alcotest.(check bool) "dirty for redo" true (Buffer_pool.is_dirty pool3 2);
  Alcotest.(check int) "old body retained" 41 (Page.get_u16 q uoff);
  Alcotest.(check int) "repair counted" 1 (Buffer_pool.torn_detected pool3)

let test_alloc_zones () =
  let _, pool = mk ~pages:1 () in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  let lo, hi = Alloc.leaf_zone alloc in
  Alcotest.(check (pair int int)) "zone" (1, 9) (lo, hi);
  let l1 = Alloc.alloc alloc Alloc.Leaf in
  Alcotest.(check int) "first leaf page" 1 l1;
  let i1 = Alloc.alloc alloc Alloc.Internal in
  Alcotest.(check bool) "internal beyond leaf zone" true (i1 >= 9);
  (* Mark allocated pages non-free (callers format them). *)
  let p = Pager.Buffer_pool.get pool l1 in
  Page.set_kind p 1;
  Buffer_pool.mark_dirty pool l1;
  Alcotest.(check bool) "not free" false (Alloc.is_free alloc l1);
  Alloc.free alloc l1;
  Alcotest.(check bool) "free again" true (Alloc.is_free alloc l1)

let test_alloc_free_in_range () =
  let _, pool = mk ~pages:1 () in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  (* Claim pages 1..4, leaving 5.. free. *)
  for _ = 1 to 4 do
    ignore (Alloc.alloc alloc Alloc.Leaf)
  done;
  Alcotest.(check (option int)) "first free after 3" (Some 5)
    (Alloc.free_in_range alloc ~lo:3 ~hi:9);
  Alcotest.(check (option int)) "none below 5" None (Alloc.free_in_range alloc ~lo:1 ~hi:5)

let test_alloc_rebuild () =
  let disk, pool = mk ~pages:1 () in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  let a = Alloc.alloc alloc Alloc.Leaf in
  let b = Alloc.alloc alloc Alloc.Leaf in
  (* Format a as used, leave b free-looking on disk. *)
  let pa = Buffer_pool.get pool a in
  Page.set_kind pa 1;
  Buffer_pool.mark_dirty pool a;
  Buffer_pool.flush_all pool;
  ignore b;
  let alloc2 = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  Alloc.rebuild alloc2;
  Alcotest.(check bool) "a not free" false (Alloc.is_free alloc2 a);
  Alcotest.(check bool) "b free" true (Alloc.is_free alloc2 b);
  ignore disk

let test_deferred_free () =
  let _, pool = mk () in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  let org = Alloc.alloc alloc Alloc.Leaf in
  let dest = Alloc.alloc alloc Alloc.Leaf in
  let po = Buffer_pool.get pool org in
  Page.set_kind po 1;
  Buffer_pool.mark_dirty pool org;
  let pd = Buffer_pool.get pool dest in
  Page.set_kind pd 1;
  Buffer_pool.mark_dirty pool dest;
  Alloc.free_when_durable alloc ~page:org ~after:dest;
  Alcotest.(check bool) "not yet free" false (Alloc.is_free alloc org);
  Buffer_pool.flush_page pool dest;
  Alcotest.(check bool) "freed after dest durable" true (Alloc.is_free alloc org)

let test_try_claim () =
  let _, pool = mk ~pages:1 () in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:8 in
  Alcotest.(check bool) "claims a free page" true (Alloc.try_claim alloc 5);
  Alcotest.(check bool) "no longer free" false (Alloc.is_free alloc 5);
  Alcotest.(check bool) "second claim fails" false (Alloc.try_claim alloc 5);
  Alloc.release alloc 5;
  Alcotest.(check bool) "claimable after release" true (Alloc.try_claim alloc 5)

(* Property: random alloc/free traffic matches a set model, and rebuild
   reconstructs exactly the same free sets from the page bytes. *)
let alloc_model_test =
  QCheck.Test.make ~name:"allocator vs model (+rebuild)" ~count:100
    QCheck.(make Gen.(list_size (int_bound 120) bool))
    (fun ops ->
      let disk = Disk.create ~initial_pages:1 ~page_size:128 () in
      let pool = Buffer_pool.create (Backend.of_disk disk) in
      let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:32 in
      let held = ref [] in
      List.iter
        (fun do_alloc ->
          if do_alloc || !held = [] then begin
            let pid = Alloc.alloc alloc Alloc.Leaf in
            if List.mem pid !held then QCheck.Test.fail_reportf "double alloc %d" pid;
            let p = Buffer_pool.get pool pid in
            Page.set_kind p 1;
            Buffer_pool.mark_dirty pool pid;
            held := pid :: !held
          end
          else begin
            match !held with
            | pid :: rest ->
              Alloc.free alloc pid;
              held := rest
            | [] -> ()
          end)
        ops;
      (* All held pages non-free, everything else in the zone free. *)
      let lo, hi = Alloc.leaf_zone alloc in
      for pid = lo to hi - 1 do
        let expect_free = not (List.mem pid !held) in
        if Alloc.is_free alloc pid <> expect_free then
          QCheck.Test.fail_reportf "free-set mismatch at %d" pid
      done;
      (* Rebuild from bytes agrees. *)
      let alloc2 = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:32 in
      Alloc.rebuild alloc2;
      for pid = lo to hi - 1 do
        if Alloc.is_free alloc2 pid <> Alloc.is_free alloc pid then
          QCheck.Test.fail_reportf "rebuild mismatch at %d" pid
      done;
      true)

(* Property: under a random DAG of careful-writing constraints and a random
   flush order, a prerequisite always reaches disk no later than its
   dependent. *)
let careful_order_test =
  QCheck.Test.make ~name:"careful-writing order holds" ~count:100
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_bound 20) (pair (int_bound 9) (int_bound 9)))
            (list_size (int_bound 15) (int_bound 9))))
    (fun (deps, flushes) ->
      let disk = Disk.create ~initial_pages:10 ~page_size:128 () in
      let pool = Buffer_pool.create (Backend.of_disk disk) in
      (* Dirty all pages with a marker. *)
      for pid = 0 to 9 do
        let p = Buffer_pool.get pool pid in
        Page.set_u16 p uoff (100 + pid);
        Buffer_pool.mark_dirty pool pid
      done;
      let order = ref [] in
      let accepted = ref [] in
      List.iter
        (fun (blocked, prereq) ->
          if blocked <> prereq then
            try
              Buffer_pool.add_dependency pool ~blocked ~prereq;
              accepted := (blocked, prereq) :: !accepted
            with Buffer_pool.Cycle _ -> ())
        deps;
      (* Observe write order through a wrapper: flushes write to disk; track
         by polling disk state after each flush call. *)
      let on_disk pid = Page.get_u16 (Disk.peek disk pid) uoff = 100 + pid in
      List.iter
        (fun pid ->
          Buffer_pool.flush_page pool pid;
          if on_disk pid then
            if not (List.mem pid !order) then order := pid :: !order;
          (* Every accepted constraint must hold at all times: blocked on
             disk implies prereq on disk. *)
          List.iter
            (fun (blocked, prereq) ->
              if on_disk blocked && not (on_disk prereq) then
                QCheck.Test.fail_reportf "page %d written before prereq %d" blocked prereq)
            !accepted)
        flushes;
      true)

let test_bounded_default_capacity () =
  let _, pool = mk () in
  Alcotest.(check int) "default is bounded" Buffer_pool.default_capacity
    (Buffer_pool.capacity pool);
  Alcotest.(check bool) "and reasonable" true (Buffer_pool.default_capacity < 100_000);
  let disk = Disk.create ~initial_pages:4 ~page_size:256 () in
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Buffer_pool.create: capacity must be >= 1") (fun () ->
      ignore (Buffer_pool.create ~capacity:0 (Backend.of_disk disk)))

let test_clock_second_chance () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:3 (Backend.of_disk disk) in
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 2);
  (* All referenced: the first eviction sweep clears every bit and the hand
     lands back on the oldest frame — page 0 goes. *)
  ignore (Buffer_pool.get pool 3);
  Alcotest.(check bool) "oldest evicted" false (Buffer_pool.in_pool pool 0);
  (* Re-reference page 1; pages 2's bit is still clear from the sweep, so the
     next eviction passes over 1 (second chance) and takes 2. *)
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 4);
  Alcotest.(check bool) "referenced survives" true (Buffer_pool.in_pool pool 1);
  Alcotest.(check bool) "unreferenced evicted" false (Buffer_pool.in_pool pool 2);
  Alcotest.(check bool) "newcomers resident" true
    (Buffer_pool.in_pool pool 3 && Buffer_pool.in_pool pool 4)

let test_dirty_eviction_flushes_prereqs_in_order () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:2 (Backend.of_disk disk) in
  (* Ring order [4; 5]: page 4 (blocked) is the eviction victim, and evicting
     it must push its careful-writing prerequisite (page 5) to disk first. *)
  let blocked = Buffer_pool.get pool 4 in
  Page.set_u16 blocked uoff 104;
  Page.set_lsn blocked 44L;
  Buffer_pool.mark_dirty pool 4;
  let prereq = Buffer_pool.get pool 5 in
  Page.set_u16 prereq uoff 105;
  Page.set_lsn prereq 55L;
  Buffer_pool.mark_dirty pool 5;
  Buffer_pool.add_dependency pool ~blocked:4 ~prereq:5;
  let write_lsns = ref [] in
  Buffer_pool.set_before_write pool (fun lsn -> write_lsns := lsn :: !write_lsns);
  ignore (Buffer_pool.get pool 6);
  Alcotest.(check bool) "victim gone" false (Buffer_pool.in_pool pool 4);
  Alcotest.(check (list int64)) "prereq written first" [ 55L; 44L ] (List.rev !write_lsns);
  Alcotest.(check int) "prereq data on disk" 105 (Page.get_u16 (Disk.peek disk 5) uoff);
  Alcotest.(check int) "victim data on disk" 104 (Page.get_u16 (Disk.peek disk 4) uoff);
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one dep flush" 1 s.Buffer_pool.s_dep_flushes;
  Alcotest.(check int) "one eviction" 1 s.Buffer_pool.s_evictions

let test_stats_counter_trace () =
  (* Hand-computed trace against the clock policy, capacity 2:
     get 0 (miss), get 0 (hit), get 1 (miss), get 0 (hit),
     get 2 (miss; sweep clears 0 and 1, wraps, evicts 0),
     get 0 (miss; 1's bit is still clear, evicts 1). *)
  let disk, _ = mk ~pages:8 () in
  let pool = Buffer_pool.create ~capacity:2 (Backend.of_disk disk) in
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 2);
  ignore (Buffer_pool.get pool 0);
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "hits" 2 s.Buffer_pool.s_hits;
  Alcotest.(check int) "misses" 4 s.Buffer_pool.s_misses;
  Alcotest.(check int) "evictions" 2 s.Buffer_pool.s_evictions;
  Alcotest.(check int) "no flushes (all clean)" 0 s.Buffer_pool.s_flushes;
  Alcotest.(check bool) "residents" true
    (Buffer_pool.in_pool pool 0 && Buffer_pool.in_pool pool 2 && not (Buffer_pool.in_pool pool 1))

(* The frame table is indexed by page id: whatever order pages arrive in,
   dirty_pages and flush_all come out ascending, a page id past the table's
   end grows it, and crash empties it. *)
let test_frame_table () =
  let disk, _ = mk ~pages:300 () in
  let pool = Buffer_pool.create ~capacity:16 (Backend.of_disk disk) in
  let order = [ 40; 3; 17; 63; 0; 9; 250 ] in
  List.iter
    (fun pid ->
      let p = Buffer_pool.get pool pid in
      (* The LSN names the page, so the WAL-rule hook sees the flush order. *)
      Page.set_lsn p (Int64.of_int pid);
      if pid <> 9 then Buffer_pool.mark_dirty pool pid)
    order;
  Alcotest.(check int) "frame_count" 7 (Buffer_pool.frame_count pool);
  Alcotest.(check bool) "past the initial table" true (Buffer_pool.in_pool pool 250);
  Alcotest.(check bool) "never loaded" false (Buffer_pool.in_pool pool 100);
  Alcotest.(check bool) "past the table" false (Buffer_pool.in_pool pool 299);
  Alcotest.(check (list int)) "dirty_pages ascending" [ 0; 3; 17; 40; 63; 250 ]
    (Buffer_pool.dirty_pages pool);
  let flushed = ref [] in
  Buffer_pool.set_before_write pool (fun lsn -> flushed := Int64.to_int lsn :: !flushed);
  Buffer_pool.flush_all pool;
  Alcotest.(check (list int)) "flush_all ascending" [ 0; 3; 17; 40; 63; 250 ] (List.rev !flushed);
  Alcotest.(check (list int)) "all clean" [] (Buffer_pool.dirty_pages pool);
  let s = Buffer_pool.stats pool in
  ignore (Buffer_pool.get pool 250);
  Alcotest.(check int) "a resident page past 64 is a hit" (s.Buffer_pool.s_hits + 1)
    (Buffer_pool.stats pool).Buffer_pool.s_hits;
  for pid = 100 to 115 do
    ignore (Buffer_pool.get pool pid)
  done;
  Alcotest.(check int) "frame_count at capacity" 16 (Buffer_pool.frame_count pool);
  Buffer_pool.crash pool;
  Alcotest.(check int) "crash empties the table" 0 (Buffer_pool.frame_count pool);
  Alcotest.(check bool) "nothing resident" false
    (List.exists (Buffer_pool.in_pool pool) (order @ List.init 16 (fun i -> 100 + i)));
  Alcotest.(check (list int)) "no dirty pages" [] (Buffer_pool.dirty_pages pool);
  ignore (Buffer_pool.get pool 3);
  Alcotest.(check int) "refills" 1 (Buffer_pool.frame_count pool)

(* refix keeps a still-resident handle without counting an access and
   re-fixes an evicted one. *)
let test_refix () =
  let disk, _ = mk ~pages:32 () in
  let pool = Buffer_pool.create ~capacity:2 (Backend.of_disk disk) in
  let p0 = Buffer_pool.get pool 0 in
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "resident: same handle" true (Buffer_pool.refix pool 0 p0 == p0);
  Alcotest.(check bool) "no access counted" true (Buffer_pool.stats pool = s);
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 2);
  ignore (Buffer_pool.get pool 3);
  Alcotest.(check bool) "evicted" false (Buffer_pool.in_pool pool 0);
  let q0 = Buffer_pool.refix pool 0 p0 in
  Alcotest.(check bool) "evicted: the resident frame" true
    (q0 != p0 && q0 == Buffer_pool.get pool 0)

let () =
  Alcotest.run "pager"
    [
      ( "page+disk",
        [
          Alcotest.test_case "accessors" `Quick test_page_accessors;
          Alcotest.test_case "checksum coverage" `Quick test_checksum_coverage;
          Alcotest.test_case "rw + stats" `Quick test_disk_rw_and_stats;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "write stats + cost" `Quick test_write_stats_and_cost;
          Alcotest.test_case "split r/w cursors" `Quick test_split_rw_cursors;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash boundary" `Quick test_fault_crash_boundary;
          Alcotest.test_case "torn write detect + repair" `Quick
            test_torn_write_detect_and_repair;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "write-back + crash" `Quick test_pool_write_back_and_crash;
          Alcotest.test_case "wal hook" `Quick test_wal_hook_called;
          Alcotest.test_case "careful writing order" `Quick test_careful_writing_order;
          Alcotest.test_case "careful writing cycle" `Quick test_careful_writing_cycle;
          Alcotest.test_case "on_durable" `Quick test_on_durable;
          Alcotest.test_case "dependency chain" `Quick test_dep_chain;
          Alcotest.test_case "discharge by reverse index" `Quick test_discharge_by_reverse_index;
          Alcotest.test_case "elevator flush" `Quick test_flush_elevator_order;
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "pinning" `Quick test_pin_blocks_eviction;
          Alcotest.test_case "bounded default capacity" `Quick test_bounded_default_capacity;
          Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "dirty eviction prereq order" `Quick
            test_dirty_eviction_flushes_prereqs_in_order;
          Alcotest.test_case "counter trace" `Quick test_stats_counter_trace;
          Alcotest.test_case "page-id frame table" `Quick test_frame_table;
          Alcotest.test_case "refix" `Quick test_refix;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "zones" `Quick test_alloc_zones;
          Alcotest.test_case "free_in_range" `Quick test_alloc_free_in_range;
          Alcotest.test_case "rebuild" `Quick test_alloc_rebuild;
          Alcotest.test_case "deferred free" `Quick test_deferred_free;
          Alcotest.test_case "try_claim" `Quick test_try_claim;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest alloc_model_test;
          QCheck_alcotest.to_alcotest careful_order_test;
        ] );
    ]
