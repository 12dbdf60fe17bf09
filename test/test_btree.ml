(* B+-tree unit, integration and property tests. *)

module Page = Pager.Page
module Disk = Pager.Disk
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Journal = Transact.Journal
module Txn = Transact.Txn
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Tree = Btree.Tree
module Invariant = Btree.Invariant
module Bulk = Btree.Bulk

type env = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  log : Wal.Log.t;
  journal : Journal.t;
  alloc : Alloc.t;
  tree : Tree.t;
  txn : Txn.t;
}

let mk ?(page_size = 512) ?(leaf_pages = 512) () =
  let disk = Disk.create ~page_size () in
  let pool = Buffer_pool.create (Pager.Backend.of_disk disk) in
  let log = Wal.Log.create () in
  let journal = Journal.create pool log in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages in
  let tree = Tree.create ~journal ~alloc ~meta_pid:0 ~tree_name:1 () in
  { disk; pool; log; journal; alloc; tree; txn = Txn.make 1 }

let payload k = Printf.sprintf "value-%06d" k

let insert env k = Tree.insert env.tree ~txn:env.txn ~key:k ~payload:(payload k) ()
let delete env k = Tree.delete env.tree ~txn:env.txn k

let check env = Invariant.check ~alloc:env.alloc env.tree

(* ------------------------------------------------------------------ *)

let test_empty () =
  let env = mk () in
  check env;
  Alcotest.(check (option string)) "miss" None (Tree.search env.tree 42);
  Alcotest.(check int) "height" 1 (Tree.height env.tree)

let test_sequential_inserts () =
  let env = mk () in
  for k = 0 to 499 do
    insert env k
  done;
  check env;
  for k = 0 to 499 do
    Alcotest.(check (option string)) "hit" (Some (payload k)) (Tree.search env.tree k)
  done;
  Alcotest.(check bool) "grew" true (Tree.height env.tree > 1);
  let s = Tree.stats env.tree in
  Alcotest.(check int) "records" 500 s.Tree.record_count

let test_shuffled_inserts () =
  let env = mk () in
  let rng = Util.Rng.create 7 in
  let keys = Util.Rng.permutation rng 600 in
  Array.iter (fun k -> insert env k) keys;
  check env;
  Invariant.check_consistent_with env.tree
    ~expected:(List.init 600 (fun k -> (k, payload k)))

let test_duplicate () =
  let env = mk () in
  insert env 5;
  Alcotest.check_raises "dup" (Tree.Duplicate_key 5) (fun () -> insert env 5)

let test_delete_and_free_at_empty () =
  let env = mk () in
  let n = 400 in
  for k = 0 to n - 1 do
    insert env k
  done;
  let before = (Tree.stats env.tree).Tree.leaf_count in
  (* Delete a contiguous band: the emptied leaves must be deallocated. *)
  for k = 50 to 349 do
    match delete env k with
    | Some _ -> ()
    | None -> Alcotest.failf "key %d missing at delete" k
  done;
  check env;
  let after = (Tree.stats env.tree).Tree.leaf_count in
  Alcotest.(check bool) "leaves freed" true (after < before);
  Invariant.check_consistent_with env.tree
    ~expected:
      (List.filter_map
         (fun k -> if k < 50 || k > 349 then Some (k, payload k) else None)
         (List.init n Fun.id))

let test_delete_all () =
  let env = mk () in
  for k = 0 to 299 do
    insert env k
  done;
  for k = 0 to 299 do
    ignore (delete env k)
  done;
  check env;
  Alcotest.(check int) "empty" 0 (Tree.stats env.tree).Tree.record_count;
  Alcotest.(check int) "height back to 1" 1 (Tree.height env.tree);
  (* Everything except the root leaf should be free again. *)
  insert env 7;
  Alcotest.(check (option string)) "reusable" (Some (payload 7)) (Tree.search env.tree 7)

let test_range () =
  let env = mk () in
  let keys = List.init 300 (fun i -> 3 * i) in
  List.iter (insert env) keys;
  let got = Tree.range env.tree ~lo:100 ~hi:200 in
  let expected = List.filter (fun k -> k >= 100 && k <= 200) keys in
  Alcotest.(check (list int)) "range keys" expected (List.map (fun r -> r.Leaf.key) got);
  Alcotest.(check (list int)) "empty range" []
    (List.map (fun r -> r.Leaf.key) (Tree.range env.tree ~lo:1000 ~hi:900))

let test_bulk_load () =
  let env = mk () in
  (* Build a second tree on the same disk via bulk load. *)
  let records = List.init 500 (fun i -> (2 * i, payload (2 * i))) in
  let disk = Disk.create ~page_size:512 () in
  let pool = Buffer_pool.create (Pager.Backend.of_disk disk) in
  let journal = Journal.create pool (Wal.Log.create ()) in
  let alloc = Alloc.create ~pool ~meta_pages:1 ~leaf_pages:512 in
  let tree = Bulk.load ~journal ~alloc ~meta_pid:0 ~tree_name:1 ~fill:0.9 records in
  ignore env;
  Invariant.check ~alloc tree;
  Invariant.check_consistent_with tree ~expected:records;
  let s = Tree.stats tree in
  Alcotest.(check bool) "fill close to 0.9" true (s.Tree.avg_leaf_fill > 0.7);
  Alcotest.(check bool) "has internal levels" true (s.Tree.internal_count > 0)

let test_persistence () =
  let env = mk () in
  for k = 0 to 199 do
    insert env k
  done;
  Buffer_pool.flush_all env.pool;
  (* Reopen through a cold pool over the same disk. *)
  let pool2 = Buffer_pool.create (Pager.Backend.of_disk env.disk) in
  let journal2 = Journal.create pool2 env.log in
  let alloc2 = Alloc.create ~pool:pool2 ~meta_pages:1 ~leaf_pages:512 in
  Alloc.rebuild alloc2;
  let tree2 = Tree.attach ~journal:journal2 ~alloc:alloc2 ~meta_pid:0 () in
  Invariant.check ~alloc:alloc2 tree2;
  Invariant.check_consistent_with tree2 ~expected:(List.init 200 (fun k -> (k, payload k)))

let test_next_base () =
  let env = mk () in
  for k = 0 to 999 do
    insert env k
  done;
  check env;
  (* Walk all base pages via Get_Next and verify they cover all leaves. *)
  let rec collect k acc =
    match Tree.next_base env.tree k with
    | None -> List.rev acc
    | Some pid ->
      let low = Inode.low_mark (Tree.page env.tree pid) in
      collect low (pid :: acc)
  in
  let bases =
    match Tree.first_base env.tree with
    | None -> []
    | Some b -> b :: collect (Inode.low_mark (Tree.page env.tree b)) []
  in
  Alcotest.(check bool) "found bases" true (List.length bases > 1);
  let leaf_count =
    List.fold_left (fun acc b -> acc + Inode.nentries (Tree.page env.tree b)) 0 bases
  in
  Alcotest.(check int) "bases cover all leaves" (Tree.stats env.tree).Tree.leaf_count leaf_count

(* [Tree.stats] walks the leaf chain once and stops its internal-page count
   at the base pages, so no leaf is fixed twice. *)
let test_stats_fixes_each_page_once () =
  let env = mk ~leaf_pages:1024 () in
  for k = 0 to 2999 do
    insert env k
  done;
  let fixes () =
    let s = Buffer_pool.stats env.pool in
    s.Buffer_pool.s_hits + s.Buffer_pool.s_misses
  in
  let before = fixes () in
  let s = Tree.stats env.tree in
  let used = fixes () - before in
  Alcotest.(check bool) "multi-level" true (s.Tree.height >= 3);
  let bound = s.Tree.leaf_count + s.Tree.internal_count + (2 * s.Tree.height) in
  Alcotest.(check bool)
    (Printf.sprintf "%d fixes <= %d (%d leaves)" used bound s.Tree.leaf_count)
    true (used <= bound);
  Alcotest.(check int) "records" 3000 s.Tree.record_count

let test_update () =
  let env = mk () in
  for k = 0 to 99 do
    insert env k
  done;
  Alcotest.(check (option string)) "old payload returned" (Some (payload 50))
    (Tree.update env.tree ~txn:env.txn ~key:50 ~payload:"fresh" ());
  Alcotest.(check (option string)) "new payload" (Some "fresh") (Tree.search env.tree 50);
  Alcotest.(check (option string)) "absent key untouched" None
    (Tree.update env.tree ~txn:env.txn ~key:999 ~payload:"x" ());
  Alcotest.(check (option string)) "still absent" None (Tree.search env.tree 999);
  check env

(* ---------------- cursor + dump ---------------- *)

let test_cursor_walk () =
  let env = mk () in
  let keys = List.init 300 (fun i -> 3 * i) in
  List.iter (insert env) keys;
  let c = Btree.Cursor.first env.tree in
  let collected = ref [] in
  while not (Btree.Cursor.at_end c) do
    collected := Option.get (Btree.Cursor.key c) :: !collected;
    Btree.Cursor.next c
  done;
  Alcotest.(check (list int)) "forward walk = all keys" keys (List.rev !collected);
  (* Backward from the end. *)
  let c = Btree.Cursor.last env.tree in
  let back = ref [] in
  while not (Btree.Cursor.at_start c) do
    back := Option.get (Btree.Cursor.key c) :: !back;
    Btree.Cursor.prev c
  done;
  Alcotest.(check (list int)) "backward walk = all keys" keys !back

let test_cursor_seek () =
  let env = mk () in
  List.iter (insert env) (List.init 200 (fun i -> 4 * i));
  let c = Btree.Cursor.seek env.tree 101 in
  Alcotest.(check (option int)) "first key >= 101" (Some 104) (Btree.Cursor.key c);
  let c = Btree.Cursor.seek env.tree 100 in
  Alcotest.(check (option int)) "exact hit" (Some 100) (Btree.Cursor.key c);
  let c = Btree.Cursor.seek env.tree 10_000 in
  Alcotest.(check bool) "past end" true (Btree.Cursor.at_end c);
  Alcotest.(check int) "count in range" 26
    (Btree.Cursor.count env.tree ~lo:100 ~hi:200)

let test_cursor_survives_reorg () =
  (* Cursor iteration relies on side pointers; after a full reorganization
     they must still visit everything in order. *)
  let records = List.init 400 (fun i -> (2 * i, payload (2 * i))) in
  let db = Sim.Db.load ~leaf_pages:2048 ~fill:0.3 records in
  Workload.Scramble.spread_leaves db.Sim.Db.tree (Util.Rng.create 3) ~span_factor:1.5;
  let ctx = Reorg.Ctx.make ~access:db.Sim.Db.access ~config:Reorg.Config.default () in
  let eng = Sched.Engine.create () in
  Sched.Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  Sched.Engine.run eng;
  let got =
    Btree.Cursor.fold_forward db.Sim.Db.tree ~lo:min_int ~hi:max_int ~init:[]
      ~f:(fun acc r -> (r.Leaf.key, r.Leaf.payload) :: acc)
  in
  Alcotest.(check bool) "cursor sees all records post-reorg" true (List.rev got = records)

let test_dump_renders () =
  let env = mk () in
  for k = 0 to 99 do
    insert env k
  done;
  let d = Btree.Dump.tree env.tree in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions META" true (contains "META" d);
  Alcotest.(check bool) "mentions INTERNAL" true (contains "INTERNAL" d);
  Alcotest.(check bool) "mentions LEAF" true (contains "LEAF" d);
  let chain = Btree.Dump.leaf_chain env.tree in
  Alcotest.(check bool) "one line per leaf" true
    (List.length (String.split_on_char '\n' chain) - 1
    = (Tree.stats env.tree).Tree.leaf_count);
  Wal.Log.force_all env.log;
  let tail = Btree.Dump.log_tail env.log ~n:5 in
  Alcotest.(check bool) "log tail non-empty" true (String.length tail > 0)

(* Model-based property test: a random sequence of inserts/deletes/searches
   behaves like a Map, and invariants hold throughout. *)
let model_test =
  QCheck.Test.make ~name:"btree vs model" ~count:60
    QCheck.(
      make
        Gen.(
          list_size (int_bound 400)
            (pair (int_bound 2) (int_bound 500))))
    (fun ops ->
      let env = mk ~page_size:256 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
            if not (Hashtbl.mem model k) then begin
              insert env k;
              Hashtbl.replace model k (payload k)
            end
          | 1 ->
            let got = delete env k in
            let want = Hashtbl.find_opt model k in
            Hashtbl.remove model k;
            if got <> want then QCheck.Test.fail_reportf "delete %d: mismatch" k
          | _ ->
            let got = Tree.search env.tree k in
            let want = Hashtbl.find_opt model k in
            if got <> want then QCheck.Test.fail_reportf "search %d: mismatch" k)
        ops;
      Invariant.check ~alloc:env.alloc env.tree;
      Invariant.check_consistent_with env.tree
        ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []);
      true)

let inode_page_test =
  QCheck.Test.make ~name:"internal node ops" ~count:200
    QCheck.(make Gen.(list_size (int_bound 50) (pair (int_bound 80) bool)))
    (fun ops ->
      let p = Page.create ~size:512 in
      Inode.init p ~level:1 ~low_mark:min_int;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, ins) ->
          if ins then begin
            if
              (not (Hashtbl.mem model k))
              && Inode.nentries p < Inode.capacity p
            then
              if Inode.insert p { Inode.key = k; child = k + 1000 } then
                Hashtbl.replace model k (k + 1000)
          end
          else begin
            let got = Inode.delete_key p k in
            let want = Hashtbl.find_opt model k in
            Hashtbl.remove model k;
            match (got, want) with
            | Some e, Some c when e.Inode.child = c -> ()
            | None, None -> ()
            | _ -> QCheck.Test.fail_reportf "inode delete %d mismatch" k
          end)
        ops;
      let got = List.map (fun e -> (e.Inode.key, e.Inode.child)) (Inode.entries p) in
      let want = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) model []) in
      if got <> want then QCheck.Test.fail_reportf "inode contents mismatch"
      else begin
        (* child_for agrees with a reference lower-bound search. *)
        (match want with
        | [] -> ()
        | _ ->
          List.iter
            (fun probe ->
              let expect =
                List.fold_left (fun acc (k, c) -> if k <= probe then Some c else acc) None want
              in
              match expect with
              | None -> () (* probe below all keys: clamped to first child *)
              | Some c ->
                if Inode.child_for p probe <> c then
                  QCheck.Test.fail_reportf "child_for %d mismatch" probe)
            [ 0; 13; 40; 79 ]);
        true
      end)

let leaf_page_test =
  QCheck.Test.make ~name:"leaf page ops" ~count:200
    QCheck.(make Gen.(list_size (int_bound 40) (pair (int_bound 60) bool)))
    (fun ops ->
      let p = Page.create ~size:512 in
      Leaf.init p ~low_mark:min_int;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, ins) ->
          if ins then begin
            if not (Hashtbl.mem model k) then
              let r = { Leaf.key = k; payload = payload k } in
              if Leaf.insert p r then Hashtbl.replace model k (payload k)
          end
          else begin
            let got = Leaf.delete p k in
            let want = Hashtbl.find_opt model k in
            Hashtbl.remove model k;
            if got <> want then QCheck.Test.fail_reportf "leaf delete %d" k
          end)
        ops;
      let got = List.map (fun r -> (r.Leaf.key, r.Leaf.payload)) (Leaf.records p) in
      let want =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      got = want)

(* ---------------- in-place search kernels ---------------- *)

let leaf_of keys =
  let p = Page.create ~size:512 in
  Leaf.init p ~low_mark:min_int;
  List.iter (fun k -> assert (Leaf.insert p { Leaf.key = k; payload = payload k })) keys;
  p

let pairs = List.map (fun r -> (r.Leaf.key, r.Leaf.payload))

(* The per-leaf step the range kernel replaced. *)
let filter_range p ~lo ~hi acc =
  List.rev_append (List.filter (fun r -> r.Leaf.key >= lo && r.Leaf.key <= hi) (Leaf.records p)) acc

let test_leaf_range_kernel () =
  let acc = [ { Leaf.key = -1; payload = "earlier leaf" } ] in
  let check name p ~lo ~hi =
    Alcotest.(check (list (pair int string)))
      name
      (pairs (filter_range p ~lo ~hi acc))
      (pairs (Leaf.rev_range p ~lo ~hi acc))
  in
  check "empty leaf" (leaf_of []) ~lo:0 ~hi:100;
  let p = leaf_of [ 10; 20; 30; 40 ] in
  check "lo above the max key" p ~lo:41 ~hi:100;
  check "hi below the min key" p ~lo:0 ~hi:9;
  check "lo = hi on a key" p ~lo:20 ~hi:20;
  check "lo = hi between keys" p ~lo:25 ~hi:25;
  check "lo > hi" p ~lo:30 ~hi:20;
  check "bounds between keys" p ~lo:15 ~hi:35;
  check "whole leaf" p ~lo:min_int ~hi:max_int;
  Alcotest.(check (list int)) "reversed onto the accumulator" [ 30; 20; -1 ]
    (List.map (fun r -> r.Leaf.key) (Leaf.rev_range p ~lo:20 ~hi:30 acc))

let leaf_range_test =
  QCheck.Test.make ~name:"leaf range kernel = filter over records" ~count:300
    QCheck.(
      make
        Gen.(
          triple (list_size (int_bound 18) (int_bound 200)) (int_range (-10) 210)
            (int_range (-10) 210)))
    (fun (keys, lo, hi) ->
      let p = leaf_of (List.sort_uniq compare keys) in
      pairs (Leaf.rev_range p ~lo ~hi []) = pairs (filter_range p ~lo ~hi []))

(* Every in-place search on internal nodes against a linear scan of the
   node's entries, on random pages up to capacity. *)
let inode_search_test =
  QCheck.Test.make ~name:"internal node search = linear reference" ~count:300
    QCheck.(
      make Gen.(pair (list (int_bound 1000)) (list_size (int_bound 20) (int_range (-5) 1005))))
    (fun (keys, probes) ->
      let p = Page.create ~size:512 in
      Inode.init p ~level:1 ~low_mark:min_int;
      let keys = List.filteri (fun i _ -> i < Inode.capacity p) (List.sort_uniq compare keys) in
      List.iter (fun k -> assert (Inode.insert p { Inode.key = k; child = (7 * k) + 3 })) keys;
      let entries = Array.of_list keys in
      let n = Array.length entries in
      List.for_all
        (fun k ->
          let linear_index =
            let best = ref 0 in
            Array.iteri (fun i key -> if key <= k then best := i) entries;
            !best
          in
          let found = List.find_index (fun key -> key = k) keys in
          let next = List.find_opt (fun key -> key > k) keys in
          let child_ok =
            if n = 0 then
              match Inode.child_index_for p k with _ -> false | exception Not_found -> true
            else
              Inode.child_index_for p k = linear_index
              && Inode.child_for p k = (7 * entries.(linear_index)) + 3
          in
          child_ok
          && Inode.find_key p k = found
          && Inode.next_entry_key p k = next
          && List.for_all
               (fun i ->
                 Inode.key_at p i = entries.(i) && Inode.child_at p i = (7 * entries.(i)) + 3)
               (List.init n Fun.id))
        (keys @ probes))

(* A page on the descent that is neither a leaf nor an internal node: here
   a freed page that still holds an entry leading back to the root. *)
let test_descent_through_non_node () =
  let env = mk () in
  for k = 0 to 299 do
    insert env k
  done;
  let path = Tree.descend_path env.tree 150 in
  Alcotest.(check bool) "at least two levels" true (List.length path >= 2);
  let leaf = List.nth path (List.length path - 1) in
  let p = Tree.page env.tree leaf in
  Inode.init p ~level:1 ~low_mark:min_int;
  assert (Inode.insert p { Inode.key = min_int; child = Tree.root env.tree });
  Page.set_kind p Page.kind_free;
  Alcotest.check_raises "descend_path" (Tree.Not_a_node leaf) (fun () ->
      ignore (Tree.descend_path env.tree 150));
  Alcotest.check_raises "parent_of_leaf" (Tree.Not_a_node leaf) (fun () ->
      ignore (Tree.parent_of_leaf env.tree 150))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "btree"
    [
      ( "tree",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "sequential inserts" `Quick test_sequential_inserts;
          Alcotest.test_case "shuffled inserts" `Quick test_shuffled_inserts;
          Alcotest.test_case "duplicate key" `Quick test_duplicate;
          Alcotest.test_case "delete + free-at-empty" `Quick test_delete_and_free_at_empty;
          Alcotest.test_case "delete all" `Quick test_delete_all;
          Alcotest.test_case "range scan" `Quick test_range;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "bulk load" `Quick test_bulk_load;
          Alcotest.test_case "persistence" `Quick test_persistence;
          Alcotest.test_case "next_base cursor" `Quick test_next_base;
          Alcotest.test_case "stats fixes each page once" `Quick test_stats_fixes_each_page_once;
          Alcotest.test_case "descent through a non-node page" `Quick
            test_descent_through_non_node;
        ] );
      ( "cursor + dump",
        [
          Alcotest.test_case "cursor walk" `Quick test_cursor_walk;
          Alcotest.test_case "cursor seek" `Quick test_cursor_seek;
          Alcotest.test_case "cursor after reorg" `Quick test_cursor_survives_reorg;
          Alcotest.test_case "dump" `Quick test_dump_renders;
        ] );
      ( "properties",
        [
          q model_test;
          q leaf_page_test;
          q inode_page_test;
          Alcotest.test_case "leaf range kernel" `Quick test_leaf_range_kernel;
          q leaf_range_test;
          q inode_search_test;
        ] );
    ]
