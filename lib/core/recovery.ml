module Page = Pager.Page
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Lsn = Wal.Lsn
module Log = Wal.Log
module Record = Wal.Record
module Journal = Transact.Journal
module Txn_mgr = Transact.Txn_mgr
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Tree = Btree.Tree
module Access = Btree.Access

type resume =
  | No_reorg
  | Resume_passes of { lk : int }
  | Resume_pass3 of { stable_key : int; closed : (int * int) list }
  | Finish_switch of { new_root : int }

type outcome = {
  resume : resume;
  finished_unit : int option;
  units_finished : int;
  losers_undone : int;
  redo_applied : int;
  torn_pages : int;
  side_entries : Record.side_op list;
}

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type analysis = {
  losers : (int * Lsn.t) list;
  open_units : int list;  (** BEGUN but not ENDED — parallel mode can leave several *)
  rt : Record.reorg_table;
  unit_types : (int, Record.reorg_type) Hashtbl.t;
  stable_key : int option;  (** most recent Stable_key's key *)
  stable_key_lsn : Lsn.t;  (** its LSN ([nil] if none) — a truncation floor *)
  final_root : int option;  (** new_root of a Stable_key{key=max_int} *)
  switched : bool;
  side : Record.side_op list;  (** oldest first, survivors *)
  side_oldest_lsn : Lsn.t;
      (** LSN of the oldest surviving side-file record ([nil] if none) — a
          truncation floor while pass 3 remains to be finished *)
  max_txn_id : int;
}

let analyze log =
  let txns : (int, Lsn.t) Hashtbl.t = Hashtbl.create 16 in
  let unit_types = Hashtbl.create 8 in
  let open_units : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let rt_lk = ref min_int and rt_unit = ref None in
  let rt_begin = ref Lsn.nil and rt_last = ref Lsn.nil and rt_ck = ref None in
  let stable_key = ref None and final_root = ref None and switched = ref false in
  let stable_key_lsn = ref Lsn.nil in
  let side : (int * Lsn.t * Record.side_op) list ref =
    ref [] (* newest first, with txn and lsn *)
  in
  let max_txn = ref 0 in
  let note_txn t lsn =
    max_txn := max !max_txn t;
    Hashtbl.replace txns t lsn
  in
  let drop_side op =
    let rec go = function
      | [] -> []
      | (t, l, o) :: rest -> if o = op then rest else (t, l, o) :: go rest
    in
    (* entries are newest-first; drop the oldest matching one *)
    side := List.rev (go (List.rev !side))
  in
  Log.iter log (fun lsn body ->
      match body with
      | Record.Txn_begin t -> note_txn t lsn
      | Record.Txn_commit t | Record.Txn_abort t ->
        max_txn := max !max_txn t;
        Hashtbl.remove txns t
      | Record.Update { txn; _ } when txn <> 0 -> note_txn txn lsn
      | Record.Update _ -> ()
      | Record.Leaf_insert { txn; _ } | Record.Leaf_delete { txn; _ } -> note_txn txn lsn
      | Record.Clr { txn; _ } | Record.Nta_end { txn; _ } -> note_txn txn lsn
      | Record.Reorg_begin { unit_id; rtype; _ } ->
        Hashtbl.replace unit_types unit_id rtype;
        Hashtbl.replace open_units unit_id ();
        rt_unit := Some unit_id;
        rt_begin := lsn;
        rt_last := lsn
      | Record.Reorg_move { unit_id; _ } | Record.Reorg_modify { unit_id; _ } ->
        if !rt_unit = Some unit_id then rt_last := lsn
      | Record.Reorg_end { unit_id; largest_key; _ } ->
        Hashtbl.remove open_units unit_id;
        if !rt_unit = Some unit_id then begin
          rt_unit := None;
          rt_begin := Lsn.nil;
          rt_last := Lsn.nil
        end;
        if largest_key > !rt_lk then rt_lk := largest_key
      | Record.Side_file { txn; op; _ } ->
        note_txn txn lsn;
        side := (txn, lsn, op) :: !side
      | Record.Side_applied { op } -> drop_side op
      | Record.Stable_key { key; new_root } ->
        stable_key := Some key;
        stable_key_lsn := lsn;
        rt_ck := Some key;
        if key = max_int && new_root <> 0 then final_root := Some new_root
      | Record.Switch _ ->
        switched := true;
        rt_ck := None;
        side := []
      | Record.Checkpoint { active_txns; reorg; _ } ->
        Hashtbl.reset txns;
        List.iter (fun (t, l) -> note_txn t l) active_txns;
        rt_lk := reorg.Record.rt_lk;
        rt_unit := reorg.rt_unit;
        rt_begin := reorg.rt_begin_lsn;
        rt_last := reorg.rt_last_lsn;
        rt_ck := reorg.rt_ck);
  (* Undoing a loser removes its side-file entries (its CLRs would have,
     had the rollback run before the crash). *)
  let losers = Hashtbl.fold (fun t l acc -> (t, l) :: acc) txns [] in
  let loser_ids = List.map fst losers in
  let survivors =
    List.rev !side |> List.filter (fun (t, _, _) -> not (List.mem t loser_ids))
  in
  (* §7.3: entries beyond the most recent stable key refer to base pages the
     resumed scan will re-read — drop them. *)
  let key_of = function
    | Record.Side_insert { key; _ } | Record.Side_delete { key; _ } -> key
  in
  let survivors =
    match !stable_key with
    | Some sk when not !switched && !final_root = None ->
      List.filter (fun (_, _, op) -> key_of op < sk) survivors
    | _ -> survivors
  in
  let side_ops = List.map (fun (_, _, op) -> op) survivors in
  let side_oldest_lsn = match survivors with [] -> Lsn.nil | (_, l, _) :: _ -> l in
  {
    losers;
    open_units = Hashtbl.fold (fun u () acc -> u :: acc) open_units [] |> List.sort compare;
    rt =
      {
        Record.rt_lk = !rt_lk;
        rt_unit = !rt_unit;
        rt_begin_lsn = !rt_begin;
        rt_last_lsn = !rt_last;
        rt_ck = !rt_ck;
      };
    unit_types;
    stable_key = !stable_key;
    stable_key_lsn = !stable_key_lsn;
    final_root = !final_root;
    switched = !switched;
    side = side_ops;
    side_oldest_lsn;
    max_txn_id = !max_txn;
  }

(* ------------------------------------------------------------------ *)
(* Redo                                                                *)
(* ------------------------------------------------------------------ *)

let set_contents p records =
  Leaf.clear p;
  List.iter (fun r -> assert (Leaf.insert p r)) records

let redo ~tree ~unit_types log =
  let pool = Tree.pool tree in
  let applied = ref 0 in
  let stamp pid lsn =
    let p = Buffer_pool.get pool pid in
    Page.set_lsn p (Lsn.to_int64 lsn);
    Buffer_pool.mark_dirty pool pid;
    incr applied
  in
  let needs pid lsn = Page.lsn (Buffer_pool.get pool pid) < Lsn.to_int64 lsn in
  let skip = Hashtbl.create 4 in
  Log.iter log (fun lsn body ->
      if not (Hashtbl.mem skip lsn) then
        match body with
        | Record.Update { page; off; after; _ } ->
          if needs page lsn then begin
            let p = Buffer_pool.get pool page in
            Bytes.blit_string after 0 p off (String.length after);
            stamp page lsn
          end
        | Record.Leaf_insert { page; key; payload; _ } ->
          if needs page lsn then begin
            ignore (Leaf.replace (Buffer_pool.get pool page) { Leaf.key; payload });
            stamp page lsn
          end
        | Record.Leaf_delete { page; key; _ } ->
          if needs page lsn then begin
            ignore (Leaf.delete (Buffer_pool.get pool page) key);
            stamp page lsn
          end
        | Record.Clr { action; _ } -> begin
          (* Idempotent logical redo of compensation. *)
          match action with
          | Record.Undo_insert { key } -> Tree.apply_delete tree key
          | Record.Undo_delete { key; payload } -> Tree.apply_insert tree ~key ~payload
          | Record.Undo_side _ -> ()
          | Record.Undo_phys { page; off; bytes } ->
            if needs page lsn then begin
              let p = Buffer_pool.get pool page in
              Bytes.blit_string bytes 0 p off (String.length bytes);
              stamp page lsn
            end
        end
        | Record.Reorg_modify { base; edits; _ } ->
          if needs base lsn then begin
            Unit_exec.apply_base_edits (Buffer_pool.get pool base) edits;
            stamp base lsn
          end
        | Record.Reorg_move { unit_id; org; dest; payload; _ } -> begin
          let rtype =
            match Hashtbl.find_opt unit_types unit_id with
            | Some t -> t
            | None -> Record.Compact
          in
          match rtype with
          | Record.Compact | Record.Move -> begin
            match payload with
            | Record.Full_records recs ->
              if needs dest lsn then begin
                let dp = Buffer_pool.get pool dest in
                List.iter (fun (key, payload) -> ignore (Leaf.replace dp { Leaf.key; payload })) recs;
                stamp dest lsn
              end;
              if needs org lsn then begin
                let op = Buffer_pool.get pool org in
                List.iter (fun (key, _) -> ignore (Leaf.delete op key)) recs;
                stamp org lsn
              end
            | Record.Keys_only keys ->
              if needs dest lsn then begin
                (* Careful writing guarantees the org page on disk still
                   holds the records: re-move them. *)
                let op = Buffer_pool.get pool org in
                let dp = Buffer_pool.get pool dest in
                List.iter
                  (fun key ->
                    match Leaf.find op key with
                    | Some payload ->
                      ignore (Leaf.replace dp { Leaf.key; payload });
                      ignore (Leaf.delete op key)
                    | None -> ())
                  keys;
                stamp dest lsn;
                stamp org lsn;
                (try Buffer_pool.add_dependency pool ~blocked:org ~prereq:dest
                 with Buffer_pool.Cycle _ -> Buffer_pool.flush_page pool dest)
              end
              else if needs org lsn then begin
                let op = Buffer_pool.get pool org in
                List.iter (fun key -> ignore (Leaf.delete op key)) keys;
                stamp org lsn
              end
          end
          | Record.Swap -> begin
            (* Find the partner MOVE (b -> a) and redo the pair as one
               action, stamping both pages with the partner's LSN.  A third
               MOVE (b -> a, a's full contents) is the §5.2 give-up's
               reverse: the unit's net effect is then none, and each page
               behind the reverse gets its own records back. *)
            let later = ref [] in
            Log.iter ~from:(lsn + 1) log (fun l b ->
                if List.length !later < 2 then
                  match b with
                  | Record.Reorg_move { unit_id = u; payload = p; _ } when u = unit_id ->
                    later := (l, p) :: !later
                  | _ -> ());
            let a = org and b = dest in
            let recs_of_payload = function
              | Record.Full_records recs ->
                Some (List.map (fun (key, payload) -> { Leaf.key; payload }) recs)
              | Record.Keys_only _ -> None
            in
            let recs_a = recs_of_payload payload in
            match List.rev !later with
            | [] -> () (* the log was cut between the pair: nothing moved *)
            | [ (m2, payload2) ] ->
              Hashtbl.replace skip m2 ();
              let a_done = not (needs a m2) and b_done = not (needs b m2) in
              if (not a_done) && not b_done then begin
                let pa = Buffer_pool.get pool a and pb = Buffer_pool.get pool b in
                let recs_b =
                  match recs_of_payload payload2 with
                  | Some r -> r
                  | None -> Leaf.records pb (* pre-swap contents, by careful writing *)
                in
                set_contents pb (Option.get recs_a);
                set_contents pa recs_b;
                stamp a m2;
                stamp b m2;
                (try Buffer_pool.add_dependency pool ~blocked:b ~prereq:a
                 with Buffer_pool.Cycle _ -> Buffer_pool.flush_page pool a)
              end
              else if a_done && not b_done then begin
                set_contents (Buffer_pool.get pool b) (Option.get recs_a);
                stamp b m2
              end
              else if b_done && not a_done then begin
                match recs_of_payload payload2 with
                | Some recs_b ->
                  set_contents (Buffer_pool.get pool a) recs_b;
                  stamp a m2
                | None ->
                  (* Impossible under careful writing (b durable implies a
                     durable); nothing safe to do otherwise. *)
                  ()
              end
            | (m2, payload2) :: (m3, _) :: _ ->
              Hashtbl.replace skip m2 ();
              Hashtbl.replace skip m3 ();
              (* A page image older than the exchange still holds its own
                 records; one between the exchange and the reverse holds the
                 other page's. *)
              let exchanged pid = (not (needs pid m2)) && needs pid m3 in
              let recs_b =
                match recs_of_payload payload2 with
                | Some r -> Some r
                | None when exchanged a -> Some (Leaf.records (Buffer_pool.get pool a))
                | None when not (exchanged b) -> Some (Leaf.records (Buffer_pool.get pool b))
                | None -> None
              in
              if needs a m3 then begin
                set_contents (Buffer_pool.get pool a) (Option.get recs_a);
                stamp a m3
              end;
              (match recs_b with
              | Some recs_b when needs b m3 ->
                set_contents (Buffer_pool.get pool b) recs_b;
                stamp b m3
              | _ -> ())
          end
        end
        | Record.Txn_begin _ | Record.Txn_commit _ | Record.Txn_abort _ | Record.Nta_end _
        | Record.Reorg_begin _ | Record.Reorg_end _ | Record.Side_file _ | Record.Side_applied _
        | Record.Stable_key _ | Record.Switch _ | Record.Checkpoint _ ->
          ());
  !applied

(* ------------------------------------------------------------------ *)
(* Forward completion of the in-flight unit (§5.1)                     *)
(* ------------------------------------------------------------------ *)

(* The unit's BEGIN, MOVEs and MODIFY count, the before-image of the first
   header write to each of its leaves after BEGIN (a unit's leaves are
   RX-locked by it, so that write is the unit's own), and every page
   formatted after BEGIN with its header image. *)
let unit_records log ~unit_id =
  let begin_info = ref None and moves = ref [] and modifies = ref 0 and headers = ref [] in
  let formats = ref [] in
  Log.iter log (fun _ body ->
      match (body, !begin_info) with
      | Record.Reorg_begin { unit_id = u; rtype; base_pages; leaf_pages }, _ when u = unit_id ->
        begin_info := Some (rtype, base_pages, leaf_pages)
      | Record.Reorg_move { unit_id = u; org; dest; payload; _ }, _ when u = unit_id ->
        moves := (org, dest, payload) :: !moves
      | Record.Reorg_modify { unit_id = u; _ }, _ when u = unit_id -> incr modifies
      | Record.Update { page; off; before; _ }, Some (_, _, leaves)
        when off = Btree.Layout.off_low_mark && List.mem page leaves
             && not (List.mem_assoc page !headers) ->
        headers := (page, before) :: !headers
      | Record.Update { page; off = 0; after; _ }, Some (_, _, leaves)
        when String.length after = Btree.Layout.body_start && not (List.mem page leaves) ->
        formats := (page, after) :: !formats
      | _ -> ());
  (!begin_info, List.rev !moves, !modifies, !headers, !formats)

let keys_of = function Record.Keys_only ks -> ks | Record.Full_records rs -> List.map fst rs

(* Read an interrupted unit's plan back.  BEGIN names its pages, the stable
   MOVEs its destination and what already moved; the rest comes from the
   recovered pages, which redo left exactly as the stable log describes.
   With no stable (pair of) MOVE(s) nothing moved, and the unit just ends,
   freeing a fresh destination it had formatted as the give-up does. *)
let read_back ctx ~rtype ~bases ~leaves ~moves ~modifies ~headers ~formats =
  let page = Ctx.page ctx in
  (* A logged header image, at [off], on an otherwise empty page. *)
  let image ~off bytes =
    let p = Bytes.make (Ctx.page_size ctx) '\000' in
    Bytes.blit_string bytes 0 p off (String.length bytes);
    p
  in
  match (rtype, leaves, moves) with
  | (Record.Compact | Record.Move), first :: _, (_, dest, _) :: _ ->
    let forwards = List.filter (fun (_, d, _) -> d = dest) moves in
    (* A reverse move out of the destination: the unit was undoing itself
       (§5.2) when the machine died. *)
    let undone = List.length (List.filter (fun (o, _, _) -> o = dest) moves) in
    let fresh = not (List.mem dest leaves) in
    let dp = page dest and bp = page (List.hd bases) in
    let records_of leaf =
      match List.find_opt (fun (o, _, _) -> o = leaf) forwards with
      | Some (_, _, payload) ->
        List.filter_map
          (fun key -> Option.map (fun payload -> { Leaf.key; payload }) (Leaf.find dp key))
          (keys_of payload)
      | None -> Leaf.records (page leaf)
    in
    let entry leaf =
      match Inode.find_child bp leaf with
      | Some i -> Inode.entry_at bp i
      | None -> { Inode.key = Leaf.low_mark (page leaf); child = leaf }
    in
    (* Record moves and deallocation leave org headers alone, and the
       destination's header only ever takes the group's own values, so the
       first and last leaves still hold the group's low mark and links. *)
    let fp = page first in
    let steps =
      Unit_exec.group_steps ctx
        {
          rtype;
          base = List.hd bases;
          leaves;
          dest;
          fresh;
          entries = List.map entry leaves;
          low_mark = Leaf.low_mark fp;
          prev_n = Leaf.prev fp;
          next_n = Leaf.next (page (List.nth leaves (List.length leaves - 1)));
          contents = List.map (fun l -> (l, records_of l)) leaves;
        }
    in
    ( steps,
      if undone > 0 then Unit_exec.Backward { undone }
      else Unit_exec.Forward { moved = List.length forwards; modifies } )
  | Record.Swap, [ a; b ], _ :: _ :: reverse ->
    (* Redo replayed the exchange: [b] holds [a]'s old records.  A leaf's
       pre-swap header (its low mark = its entry key, and its links) is the
       before-image of the unit's header write to it, or, before that write
       is stable, still the leaf's own. *)
    let pa = page a and pb = page b in
    let header pid =
      let p =
        match List.assoc_opt pid headers with
        | Some before -> image ~off:Btree.Layout.off_low_mark before
        | None -> page pid
      in
      (Leaf.low_mark p, (Leaf.prev p, Leaf.next p))
    in
    let la, links_a = header a and lb, links_b = header b in
    let steps =
      Unit_exec.swap_steps ctx
        {
          a_base = List.hd bases;
          b_base = List.nth bases (List.length bases - 1);
          pair = { a; b; pa; pb; recs_a = Leaf.records pb; recs_b = Leaf.records pa };
          la;
          lb;
          links_a;
          links_b;
        }
    in
    ( steps,
      if reverse <> [] then Unit_exec.Backward { undone = 1 }
      else Unit_exec.Forward { moved = 1; modifies } )
  | (Record.Compact | Record.Move), first :: _, [] ->
    (* The destination's header carries the group's outer links, which no
       other page formatted meanwhile can share. *)
    let last = page (List.nth leaves (List.length leaves - 1)) in
    let formatted (_, after) =
      let p = image ~off:0 after in
      (Leaf.prev p, Leaf.next p) = (Leaf.prev (page first), Leaf.next last)
    in
    ( (match List.find_opt formatted formats with
      | Some (dest, _) -> Unit_exec.formatted dest
      | None -> []),
      Unit_exec.Backward { undone = 0 } )
  | _ -> ([], Unit_exec.Backward { undone = 0 })

(* §5.1: the interrupted unit is finished by the same interpreter that ran
   it, from the first step whose record is not stable. *)
let finish_one ctx log ~unit_id =
  match unit_records log ~unit_id with
  | None, _, _, _, _ ->
    (* BEGIN never became stable: the unit never existed. *)
    ()
  | Some (rtype, bases, leaves), moves, modifies, headers, formats ->
    Ctx.emit ctx (Prot.Unit_recover { actor = ctx.Ctx.actor.Transact.Txn.id; unit_id });
    let steps, resume = read_back ctx ~rtype ~bases ~leaves ~moves ~modifies ~headers ~formats in
    Unit_exec.finish ctx ~unit_id steps resume

let finish_units ctx log ~open_units =
  List.iter (fun unit_id -> finish_one ctx log ~unit_id) open_units;
  (* The system table no longer carries an in-flight unit. *)
  Rtable.end_unit ctx.Ctx.rtable ~largest_key:(Rtable.lk ctx.Ctx.rtable);
  match open_units with [] -> None | u :: _ -> Some u

(* ------------------------------------------------------------------ *)
(* Pass-3 state reconstruction                                         *)
(* ------------------------------------------------------------------ *)

(* Free internal pages of generations older than the current one (post-
   switch garbage), and any stray meta pages in the internal zone. *)
let sweep_old_generation ctx =
  let tree = Ctx.tree ctx in
  let pool = Ctx.pool ctx in
  let alloc = Ctx.alloc ctx in
  let cur = Tree.generation tree in
  let _, leaf_hi = Alloc.leaf_zone alloc in
  for pid = leaf_hi to Pager.Disk.page_count (Buffer_pool.disk pool) - 1 do
    let p = Buffer_pool.get pool pid in
    let stale_internal = Inode.is_internal p && Inode.generation p < cur in
    let stray_meta = Page.kind p = Btree.Layout.kind_meta && pid <> Tree.meta_pid tree in
    if stale_internal || stray_meta then begin
      Journal.physical (Ctx.journal ctx) ~page:pid ~off:0 ~len:1 (fun q ->
          Page.set_kind q Page.kind_free);
      if not (Alloc.is_free alloc pid) then Alloc.release alloc pid
    end
  done

(* Adopt the durable new-generation level-1 pages below the stable key;
   free the rest of the interrupted build. *)
let rebuild_builder_state ctx ~stable_key =
  let tree = Ctx.tree ctx in
  let pool = Ctx.pool ctx in
  let alloc = Ctx.alloc ctx in
  let gen = Tree.generation tree + 1 in
  let _, leaf_hi = Alloc.leaf_zone alloc in
  let keep = ref [] in
  for pid = leaf_hi to Pager.Disk.page_count (Buffer_pool.disk pool) - 1 do
    let p = Buffer_pool.get pool pid in
    if Inode.is_internal p && Inode.generation p = gen then
      if Inode.level p = 1 && Inode.low_mark p < stable_key then
        keep := (Inode.low_mark p, pid) :: !keep
      else begin
        Journal.physical (Ctx.journal ctx) ~page:pid ~off:0 ~len:1 (fun q ->
            Page.set_kind q Page.kind_free);
        if not (Alloc.is_free alloc pid) then Alloc.release alloc pid
      end
  done;
  List.sort compare !keep

(* ------------------------------------------------------------------ *)
(* Restart                                                             *)
(* ------------------------------------------------------------------ *)

let restart ?registry ?shard ~access ~config () =
  let tree = Access.tree access in
  let mgr = Access.mgr access in
  let journal = Tree.journal tree in
  let log = Journal.log journal in
  let pool = Tree.pool tree in
  let torn_before = Buffer_pool.torn_detected pool in
  (* Restart runs in read-repair mode: a checksum mismatch accepts the
     surviving pre-tear (LSN, body) pair instead of being fatal.  The WAL
     rule forced the log past the torn write's LSN before it was issued, so
     redo's ordinary page-LSN guard replays exactly the lost suffix against
     the survivor — and nothing older, which matters because a
     careful-writing move below the survivor's LSN may name an origin page
     that has since been recycled. *)
  Buffer_pool.set_read_repair pool true;
  Fun.protect ~finally:(fun () -> Buffer_pool.set_read_repair pool false)
  @@ fun () ->
  let a = analyze log in
  (* Redo everything stable; page-LSN guards make it exact. *)
  let redo_applied = redo ~tree ~unit_types:a.unit_types log in
  Alloc.rebuild (Tree.alloc tree);
  Txn_mgr.ensure_next_id mgr (a.max_txn_id + 1);
  (* Undo loser transactions (logical undo via the tree). *)
  List.iter
    (fun (id, last) ->
      let tx = Transact.Txn.make id in
      tx.Transact.Txn.last_lsn <- last;
      Txn_mgr.undo_chain mgr tx ~last;
      ignore (Log.append log (Record.Txn_abort id)))
    a.losers;
  (* Physical undo can flip allocation kind bytes (e.g. resurrect the pages
     of a torn block operation): recompute the free sets. *)
  if a.losers <> [] then Alloc.rebuild (Tree.alloc tree);
  (* Forward recovery of the reorganizer's state. *)
  let ctx = Ctx.make ?registry ?shard ~access ~config () in
  Rtable.restore ctx.Ctx.rtable a.rt;
  let finished_unit = finish_units ctx log ~open_units:a.open_units in
  let resume =
    if a.switched then begin
      sweep_old_generation ctx;
      if Tree.reorg_bit tree then Tree.set_reorg_bit tree false;
      No_reorg
    end
    else if Tree.reorg_bit tree then begin
      match a.final_root with
      | Some new_root -> Finish_switch { new_root }
      | None ->
        let stable_key = match a.stable_key with Some k -> k | None -> min_int in
        let closed = rebuild_builder_state ctx ~stable_key in
        Resume_pass3 { stable_key; closed }
    end
    else if Rtable.lk ctx.Ctx.rtable > min_int || finished_unit <> None then
      (* With several interrupted units (parallel mode), some ranges below
         LK may be unfinished: rescan from the start — pass 1 skips
         already-compacted groups, so this is only slower, never wrong. *)
      if List.length a.open_units > 1 then Resume_passes { lk = min_int }
      else Resume_passes { lk = Rtable.lk ctx.Ctx.rtable }
    else No_reorg
  in
  (* When pass 3 must be resumed or the switch finished, the pre-crash
     side-file records and the Stable_key must survive any further crash —
     re-pin the volatile truncation floor before the end-of-restart
     checkpoint (the first one that could otherwise reclaim them). *)
  (match resume with
  | Resume_pass3 _ | Finish_switch _ ->
    Rtable.lower_floor ctx.Ctx.rtable a.stable_key_lsn;
    Rtable.lower_floor ctx.Ctx.rtable a.side_oldest_lsn
  | No_reorg | Resume_passes _ -> ());
  (* End of restart: everything durable, fresh checkpoint. *)
  Buffer_pool.flush_all pool;
  Log.force_all log;
  Ctx.checkpoint ctx;
  let units_finished = List.length a.open_units in
  let torn_pages = Buffer_pool.torn_detected pool - torn_before in
  (match registry with
  | Some reg ->
    Obs.Counter.incr (Obs.Registry.counter reg "recovery.restarts");
    if units_finished > 0 then
      Obs.Counter.incr (Obs.Registry.counter reg "recovery.units_finished") ~by:units_finished;
    if torn_pages > 0 then
      Obs.Counter.incr (Obs.Registry.counter reg "recovery.torn_pages") ~by:torn_pages
  | None -> ());
  ( ctx,
    {
      resume;
      finished_unit;
      units_finished;
      losers_undone = List.length a.losers;
      redo_applied;
      torn_pages;
      side_entries = a.side;
    } )

let resume_reorganization ctx outcome =
  match outcome.resume with
  | No_reorg -> None
  | Resume_passes _ -> Some (Driver.run ctx)
  | Resume_pass3 { stable_key; closed } ->
    let switched =
      Pass3.run ctx
        ~resume:
          { Pass3.r_stable_key = stable_key; r_closed = closed; r_side = outcome.side_entries }
        ()
    in
    Some
      {
        Driver.empty_report with
        Driver.switched;
        height_after = Tree.height (Ctx.tree ctx);
      }
  | Finish_switch { new_root } ->
    let switched =
      Pass3.run ctx ~finish:{ Pass3.f_new_root = new_root; f_side = outcome.side_entries } ()
    in
    Some
      {
        Driver.empty_report with
        Driver.switched;
        height_after = Tree.height (Ctx.tree ctx);
      }

