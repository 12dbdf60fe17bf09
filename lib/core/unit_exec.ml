module Page = Pager.Page
module Buffer_pool = Pager.Buffer_pool
module Alloc = Pager.Alloc
module Record = Wal.Record
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_client = Transact.Lock_client
module Journal = Transact.Journal
module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Layout = Btree.Layout
module Olc = Btree.Olc

type plan =
  | Compact of {
      base : int;
      leaves : int list;
      dest : [ `In_place of int | `New_place of int ];
    }
  | Swap of { a_base : int; a : int; b_base : int; b : int }
  | Move of { base : int; org : int; dest : int }

type outcome = Done of int | Stale | Gave_up

exception Stale_plan

(* ------------------------------------------------------------------ *)
(* Unit bodies                                                         *)
(* ------------------------------------------------------------------ *)

(* A unit's body is one ordered step list, built once the unit's locks are
   held (or, after a crash, read back from its log records).  The same
   interpreter runs it live from the BEGIN step, finishes it after a crash
   from the first step whose record is not stable (§5.1), and runs the
   executed prefix backwards when the base-lock upgrade loses a deadlock
   (§5.2). *)

type header = { pid : int; low_mark : int; prev : int option; next : int option }
type move = { org : int; dest : int; records : Leaf.record list }

(* The two leaves of a swap, with page handles fixed while the unit took
   its locks (see [exchange]). *)
type pair = {
  a : int;
  b : int;
  pa : Page.t;
  pb : Page.t;
  recs_a : Leaf.record list;
  recs_b : Leaf.record list;
}

type step =
  | Begin of { rtype : Record.reorg_type; bases : int list; leaves : int list }
  | Format of header  (** a fresh destination becomes an empty leaf *)
  | Move of move
  | Exchange of pair  (** a swap's two MOVE records and its content exchange *)
  | Upgrade of int list  (** R -> X on the base pages, in order *)
  | Header of header
  | Link_next of { pid : int; next : int }
  | Link_prev of { pid : int; prev : int }
  | Dealloc of { org : int; dest : int }
  | Modify of { base : int; edits : Record.base_edit list }
  | End of int  (** largest key processed *)
  (* The §5.2 give-up's backward steps. *)
  | Unmove of move
  | Unexchange of pair
  | Free of int

type run = {
  unit_id : int;
  held : (Resource.t * Mode.t) list ref option;  (** [None] when finishing after a crash *)
  mutable stable_modifies : int;  (** MODIFY records redo already applied *)
}

(* Every raw page mutation below bypasses [Tree.physical], so the
   optimistic-read version table must be bumped explicitly (DESIGN.md §11).
   Record-level content changes need it too: an uncontended unit executes
   atomically between two reader yields, so a reader parked on a leaf whose
   records are exchanged under it can only notice through the version. *)
let bump ctx pid = Olc.bump (Ctx.olc ctx) pid

let max_key_or ~default records = List.fold_left (fun a r -> max a r.Leaf.key) default records

let move_payload ~careful records =
  if careful then Record.Keys_only (List.map (fun r -> r.Leaf.key) records)
  else Record.Full_records (List.map (fun r -> (r.Leaf.key, r.Leaf.payload)) records)

(* Attempt the careful-writing write-order constraint BEFORE logging the
   MOVE.  When the dependency would close a cycle, the paper's rule applies
   ("there is no way to avoid logging at least one of the full page
   contents"): the caller logs full contents instead.  [force] because the
   prerequisite is about to be dirtied with the protected records. *)
let plan_careful ctx ~blocked ~prereq =
  ctx.Ctx.config.Config.careful_writing
  &&
  match Buffer_pool.add_dependency ~force:true (Ctx.pool ctx) ~blocked ~prereq with
  | () -> true
  | exception Buffer_pool.Cycle _ -> false

let log_move ctx r ~org ~dest ~careful records =
  let prev = Rtable.last_lsn ctx.Ctx.rtable in
  Ctx.log_reorg ctx
    (Record.Reorg_move
       { unit_id = r.unit_id; org; dest; payload = move_payload ~careful records; prev })

let set_contents p records =
  Leaf.clear p;
  List.iter (fun r -> assert (Leaf.insert p r)) records

(* A swap's two content writes.  The handles were fixed before the unit's
   lock waits, which may have evicted their frames: each page is written in
   its resident frame and stamped before the other is fixed, so loading one
   cannot evict the other's unmarked write. *)
let exchange ctx ~a ~b ~pa ~pb ~new_a ~new_b lsn =
  let pool = Ctx.pool ctx in
  set_contents (Buffer_pool.refix pool a pa) new_a;
  Ctx.stamp ctx ~page:a lsn;
  set_contents (Buffer_pool.refix pool b pb) new_b;
  Ctx.stamp ctx ~page:b lsn;
  bump ctx a;
  bump ctx b

(* Leaf headers and side pointers change through narrow physical records,
   so redo is absolute and independent of record layout, and re-running
   one after a crash is a no-op once it is durable. *)
let write_header ctx ~format h =
  let off, len =
    if format then (0, Layout.body_start)
    else (Layout.off_low_mark, Layout.off_next + 4 - Layout.off_low_mark)
  in
  Journal.physical (Ctx.journal ctx) ~page:h.pid ~off ~len (fun p ->
      (* Residual body bytes of a recycled page are unreachable once the
         header declares it empty. *)
      if format then Leaf.init p ~low_mark:h.low_mark else Leaf.set_low_mark p h.low_mark;
      Leaf.set_prev p h.prev;
      Leaf.set_next p h.next);
  bump ctx h.pid

let set_link ctx pid ~off f =
  Journal.physical (Ctx.journal ctx) ~page:pid ~off ~len:4 f;
  bump ctx pid

let mark_free ctx pid =
  Journal.physical (Ctx.journal ctx) ~page:pid ~off:0 ~len:1 (fun p ->
      Page.set_kind p Page.kind_free);
  bump ctx pid

(* The one function that applies base-page edits: the MODIFY step and redo
   of a stable MODIFY record. *)
let apply_base_edits bp edits =
  List.iter
    (fun edit ->
      match edit with
      | Record.Delete_entry { key; _ } -> ignore (Inode.delete_key bp key)
      | Record.Insert_entry { key; child } -> ignore (Inode.insert bp { Inode.key; child })
      | Record.Update_entry { org_key; new_key; new_child; _ } -> begin
        match Inode.find_key bp org_key with
        | Some i ->
          Inode.delete_at bp i;
          ignore (Inode.insert bp { Inode.key = new_key; child = new_child })
        | None -> ()
      end)
    edits

(* One MODIFY on the planned base.  The unit holds R (then X) on that base
   from BEGIN on, so no updater can split it in between, and the entries
   the edits name are there. *)
let modify ctx r ~base ~edits =
  if r.stable_modifies > 0 then r.stable_modifies <- r.stable_modifies - 1
  else begin
    let prev = Rtable.last_lsn ctx.Ctx.rtable in
    let lsn = Ctx.log_reorg ctx (Record.Reorg_modify { unit_id = r.unit_id; base; edits; prev }) in
    apply_base_edits (Ctx.page ctx base) edits;
    Ctx.stamp ctx ~page:base lsn;
    bump ctx base
  end

let upgrade ctx held base =
  let res = Resource.Page base in
  (match Lock_client.try_acquire (Ctx.locks ctx) ~txn:ctx.Ctx.actor res Mode.X with
  | `Granted -> ()
  | `Conflict _ -> Lock_client.wait_queued (Ctx.locks ctx) ~txn:ctx.Ctx.actor res Mode.X);
  held := (res, Mode.X) :: !held

(* The steps a give-up must take back: everything before the base-lock
   upgrade, reversed move by move (in their original order, each logging a
   full-content reverse MOVE), then the fresh destination freed, then END
   as a no-op. *)
let backward ctx steps =
  let rec executed = function Upgrade _ :: _ | [] -> [] | s :: rest -> s :: executed rest in
  let executed = executed steps in
  List.filter_map
    (function Move m -> Some (Unmove m) | Exchange p -> Some (Unexchange p) | _ -> None)
    executed
  @ List.filter_map (function Format h -> Some (Free h.pid) | _ -> None) executed
  @ [ End (Rtable.lk ctx.Ctx.rtable) ]

let rec run ctx r steps ~from = List.iteri (fun i s -> if i >= from then exec ctx r steps s) steps

and exec ctx r steps = function
  | Begin { rtype; bases; leaves } ->
    let begin_lsn =
      Ctx.log_reorg ctx
        (Record.Reorg_begin { unit_id = r.unit_id; rtype; base_pages = bases; leaf_pages = leaves })
    in
    Rtable.begin_unit ctx.Ctx.rtable ~unit_id:r.unit_id ~begin_lsn;
    Olc.unit_begin (Ctx.olc ctx)
  | Format h -> write_header ctx ~format:true h
  | Move { org; dest; records } ->
    let op = Ctx.page ctx org in
    let careful = plan_careful ctx ~blocked:org ~prereq:dest in
    let lsn = log_move ctx r ~org ~dest ~careful records in
    let dp = Ctx.page ctx dest in
    List.iter (fun r -> assert (Leaf.insert dp r)) records;
    Leaf.clear op;
    Ctx.stamp ctx ~page:org lsn;
    Ctx.stamp ctx ~page:dest lsn;
    bump ctx org;
    bump ctx dest;
    Obs.Counter.incr ctx.Ctx.metrics.Metrics.records_moved ~by:(List.length records)
  | Exchange { a; b; pa; pb; recs_a; recs_b } ->
    (* MOVE a->b must carry full contents; MOVE b->a may be keys-only under
       careful writing ("there is no way to avoid logging at least one of
       the full page contents"). *)
    ignore (log_move ctx r ~org:a ~dest:b ~careful:false recs_a);
    let careful = plan_careful ctx ~blocked:b ~prereq:a in
    let lsn = log_move ctx r ~org:b ~dest:a ~careful recs_b in
    exchange ctx ~a ~b ~pa ~pb ~new_a:recs_b ~new_b:recs_a lsn;
    Obs.Counter.incr ctx.Ctx.metrics.Metrics.records_moved
      ~by:(List.length recs_a + List.length recs_b)
  | Upgrade bases -> begin
    match r.held with
    | None -> ()
    | Some held -> (
      try List.iter (upgrade ctx held) bases
      with Lock_client.Deadlock_victim ->
        Obs.Counter.incr ctx.Ctx.metrics.Metrics.units_undone;
        (* The give-up decision itself is a protocol step the reverse MOVE
           records cannot express (they look like forward moves of a swap),
           so it is announced explicitly to the model checker. *)
        Ctx.emit ctx
          (Prot.Unit_undo { actor = ctx.Ctx.actor.Transact.Txn.id; unit_id = r.unit_id });
        run ctx r (backward ctx steps) ~from:0;
        raise Lock_client.Deadlock_victim)
  end
  | Header h -> write_header ctx ~format:false h
  | Link_next { pid; next } ->
    set_link ctx pid ~off:Layout.off_next (fun p -> Leaf.set_next p (Some next))
  | Link_prev { pid; prev } ->
    set_link ctx pid ~off:Layout.off_prev (fun p -> Leaf.set_prev p (Some prev))
  | Dealloc { org; dest } ->
    mark_free ctx org;
    let alloc = Ctx.alloc ctx in
    if not (Alloc.is_free alloc org) then
      if ctx.Ctx.config.Config.careful_writing then
        (* The page may not be reused until its contents are durable in dest. *)
        Alloc.defer_release alloc ~page:org ~until_durable:dest
      else Alloc.release alloc org
  | Modify { base; edits } -> modify ctx r ~base ~edits
  | End largest_key ->
    let prev = Rtable.last_lsn ctx.Ctx.rtable in
    ignore (Ctx.log_reorg ctx (Record.Reorg_end { unit_id = r.unit_id; largest_key; prev }));
    Rtable.end_unit ctx.Ctx.rtable ~largest_key;
    (* Live units, give-ups and recovery completions all end here: the
       optimistic read path stops falling back once no unit is in flight. *)
    Olc.unit_end (Ctx.olc ctx)
  | Unmove { org; dest; records } ->
    let lsn = log_move ctx r ~org:dest ~dest:org ~careful:false records in
    (* Record moves leave the org header alone: re-initialise it as it is. *)
    let op = Ctx.page ctx org in
    let low_mark = Leaf.low_mark op and prev = Leaf.prev op and next = Leaf.next op in
    Leaf.init op ~low_mark;
    Leaf.set_prev op prev;
    Leaf.set_next op next;
    List.iter (fun r -> assert (Leaf.insert op r)) records;
    Ctx.stamp ctx ~page:org lsn;
    bump ctx org;
    let dp = Ctx.page ctx dest in
    List.iter (fun r -> ignore (Leaf.delete dp r.Leaf.key)) records;
    Ctx.stamp ctx ~page:dest lsn;
    bump ctx dest
  | Unexchange { a; b; pa; pb; recs_a; recs_b } ->
    let lsn = log_move ctx r ~org:b ~dest:a ~careful:false recs_a in
    (* Once a's own records are back on disk, redo can only rebuild b from
       b's own image (a keys-only exchange MOVE has no contents), so a may
       not reach disk before b.  A cycle means b still waits for a, so b has
       not reached disk since the exchange and its image holds b's records. *)
    ignore (plan_careful ctx ~blocked:a ~prereq:b : bool);
    exchange ctx ~a ~b ~pa ~pb ~new_a:recs_a ~new_b:recs_b lsn
  | Free dest ->
    mark_free ctx dest;
    if not (Alloc.is_free (Ctx.alloc ctx) dest) then Alloc.release (Ctx.alloc ctx) dest

(* ------------------------------------------------------------------ *)
(* Step lists                                                          *)
(* ------------------------------------------------------------------ *)

type group = {
  rtype : Record.reorg_type;
  base : int;
  leaves : int list;
  dest : int;
  fresh : bool;
  entries : Inode.entry list;
  low_mark : int;
  prev_n : int option;
  next_n : int option;
  contents : (int * Leaf.record list) list;
}

type swap = {
  a_base : int;
  b_base : int;
  pair : pair;
  la : int;
  lb : int;
  links_a : int option * int option;
  links_b : int option * int option;
}

(* Compact and move: the destination takes the group's chain position and
   one base entry replaces the group's. *)
let group_steps ctx g =
  let orgs = List.filter (fun (l, _) -> l <> g.dest) g.contents in
  let header pid = { pid; low_mark = g.low_mark; prev = g.prev_n; next = g.next_n } in
  let edits =
    match g.rtype with
    | Record.Move ->
      List.map
        (fun e ->
          Record.Update_entry
            {
              org_key = e.Inode.key;
              org_child = e.Inode.child;
              new_key = e.Inode.key;
              new_child = g.dest;
            })
        g.entries
    | Record.Compact | Record.Swap ->
      List.map (fun e -> Record.Delete_entry { key = e.Inode.key; child = e.Inode.child }) g.entries
      @ [ Record.Insert_entry { key = g.low_mark; child = g.dest } ]
  in
  let link mk = function Some p when p <> g.dest -> [ mk p ] | _ -> [] in
  let records = List.concat_map snd g.contents in
  [ Begin { rtype = g.rtype; bases = [ g.base ]; leaves = g.leaves } ]
  @ (if g.fresh then [ Format (header g.dest) ] else [])
  @ List.map (fun (org, records) -> Move { org; dest = g.dest; records }) orgs
  @ [ Upgrade [ g.base ] ]
  (* A move's freshly formatted destination already has its header. *)
  @ (if g.rtype = Record.Move then [] else [ Header (header g.dest) ])
  @ link (fun pid -> Link_next { pid; next = g.dest }) g.prev_n
  @ link (fun pid -> Link_prev { pid; prev = g.dest }) g.next_n
  @ List.map (fun (org, _) -> Dealloc { org; dest = g.dest }) orgs
  @ [
      Modify { base = g.base; edits };
      End (if records = [] then Rtable.lk ctx.Ctx.rtable else max_key_or ~default:min_int records);
    ]

(* Swap: headers follow the contents, external neighbours re-point to the
   page that now holds the content they were adjacent to, and the two base
   entries keep their keys while their children exchange. *)
let swap_steps ctx s =
  let { a; b; recs_a; recs_b; _ } = s.pair in
  let tr = function Some p when p = a -> Some b | Some p when p = b -> Some a | x -> x in
  let link mk n target = match n with Some p when p <> a && p <> b -> [ mk p target ] | _ -> [] in
  let next pid next = Link_next { pid; next } and prev pid prev = Link_prev { pid; prev } in
  let bases = if s.a_base = s.b_base then [ s.a_base ] else [ s.a_base; s.b_base ] in
  let redirect key org_child new_child =
    Record.Update_entry { org_key = key; org_child; new_key = key; new_child }
  in
  let edit_a = redirect s.la a b and edit_b = redirect s.lb b a in
  [
    Begin { rtype = Record.Swap; bases; leaves = [ a; b ] };
    Exchange s.pair;
    Upgrade bases;
    Header { pid = b; low_mark = s.la; prev = tr (fst s.links_a); next = tr (snd s.links_a) };
    Header { pid = a; low_mark = s.lb; prev = tr (fst s.links_b); next = tr (snd s.links_b) };
  ]
  @ link next (fst s.links_a) b
  @ link prev (snd s.links_a) b
  @ link next (fst s.links_b) a
  @ link prev (snd s.links_b) a
  @ (if s.a_base = s.b_base then [ Modify { base = s.a_base; edits = [ edit_a; edit_b ] } ]
     else List.map2 (fun base e -> Modify { base; edits = [ e ] }) bases [ edit_a; edit_b ])
  @ [ End (max_key_or ~default:(Rtable.lk ctx.Ctx.rtable) (recs_a @ recs_b)) ]

(* ------------------------------------------------------------------ *)
(* Forward recovery                                                    *)
(* ------------------------------------------------------------------ *)

(* [backward] reads only a format step's page. *)
let formatted pid = [ Format { pid; low_mark = min_int; prev = None; next = None } ]

type resume = Forward of { moved : int; modifies : int } | Backward of { undone : int }

let test_skip_resumed_rewire = ref false

(* Stable MOVEs are skipped; once a MODIFY is stable, every rewire before
   it is too.  The rewires in between re-run idempotently. *)
let resume_index steps ~moved ~modifies =
  let rec go i seen = function
    | [] -> i
    | Modify _ :: _ when modifies > 0 -> i
    | (Move _ | Exchange _) :: _ when modifies = 0 && seen + 1 = moved -> i + 1
    | (Move _ | Exchange _) :: rest -> go (i + 1) (seen + 1) rest
    | _ :: rest -> go (i + 1) seen rest
  in
  go 0 0 steps

let finish ctx ~unit_id steps resume =
  let run ~stable_modifies steps ~from =
    run ctx { unit_id; held = None; stable_modifies } steps ~from
  in
  match resume with
  | Backward { undone } -> run ~stable_modifies:0 (backward ctx steps) ~from:undone
  | Forward { moved; modifies } ->
    let from = resume_index steps ~moved ~modifies in
    let steps =
      if not !test_skip_resumed_rewire then steps
      else
        let skipped = ref false in
        List.filteri
          (fun i s ->
            match s with
            | (Header _ | Link_next _ | Link_prev _) when i >= from && not !skipped ->
              skipped := true;
              false
            | _ -> true)
          steps
    in
    run ~stable_modifies:modifies steps ~from

(* ------------------------------------------------------------------ *)
(* Live execution                                                      *)
(* ------------------------------------------------------------------ *)

let acquire ctx held res mode =
  Ctx.acquire ctx res mode;
  held := (res, mode) :: !held

let release_all ctx held = Ctx.release_unit_locks ctx held

(* Consecutive-children check: every leaf must be a child of [base] and the
   entries must be adjacent, in order. *)
let entries_for_leaves ctx ~base ~leaves =
  let bp = Ctx.page ctx base in
  if not (Inode.is_internal bp) || Inode.level bp <> 1 then raise Stale_plan;
  let idxs =
    List.map
      (fun leaf ->
        match Inode.find_child bp leaf with Some i -> i | None -> raise Stale_plan)
      leaves
  in
  (match idxs with
  | [] -> raise Stale_plan
  | first :: rest ->
    let rec consecutive prev = function
      | [] -> ()
      | i :: rest -> if i <> prev + 1 then raise Stale_plan else consecutive i rest
    in
    consecutive first rest);
  List.map (fun i -> Inode.entry_at bp i) idxs

let abandon ctx ~held ~claimed =
  Option.iter (Alloc.release (Ctx.alloc ctx)) !claimed;
  release_all ctx held

(* [lock] takes the unit's locks (§4.1.1: all of them before BEGIN) and
   returns its step list, or [`Done] when nothing needs to move.  A fresh
   destination it claims (lock waits yield, and a concurrent split could
   otherwise allocate the same page) passes to the unit at BEGIN. *)
(* A finished unit's counters, read off the steps it ran. *)
let count_unit ctx steps =
  let m = ctx.Ctx.metrics in
  Obs.Counter.incr m.Metrics.units;
  match steps with
  | Begin { rtype = Record.Swap; _ } :: _ -> Obs.Counter.incr m.Metrics.swap_units
  | Begin { rtype = Record.Move; _ } :: _ -> Obs.Counter.incr m.Metrics.move_units
  | _ ->
    let fresh = List.exists (function Format _ -> true | _ -> false) steps in
    Obs.Counter.incr (if fresh then m.Metrics.new_place_units else m.Metrics.in_place_units);
    Obs.Counter.incr m.Metrics.pages_compacted
      ~by:(List.length (List.filter (function Dealloc _ -> true | _ -> false) steps))

let execute_live ctx lock =
  let held = ref [] and claimed = ref None in
  try
    match lock ~held ~claimed with
    | `Done largest_key ->
      release_all ctx held;
      Done largest_key
    | `Steps steps ->
      claimed := None;
      let unit_id = Rtable.next_unit_id ctx.Ctx.rtable in
      run ctx { unit_id; held = Some held; stable_modifies = 0 } steps ~from:0;
      release_all ctx held;
      count_unit ctx steps;
      Done (List.find_map (function End k -> Some k | _ -> None) steps |> Option.get)
  with
  | Stale_plan ->
    abandon ctx ~held ~claimed;
    Stale
  | Lock_client.Deadlock_victim ->
    abandon ctx ~held ~claimed;
    Gave_up

let execute_compact ctx ~base ~leaves ~dest =
  execute_live ctx (fun ~held ~claimed ->
      acquire ctx held (Resource.Page base) Mode.R;
      let entries = entries_for_leaves ctx ~base ~leaves in
      List.iter (fun leaf -> acquire ctx held (Resource.Page leaf) Mode.RX) leaves;
      (* Re-read contents under the RX locks. *)
      let contents = List.map (fun l -> (l, Leaf.records (Ctx.page ctx l))) leaves in
      let total_bytes =
        List.fold_left
          (fun acc (_, rs) -> List.fold_left (fun a r -> a + Leaf.record_bytes r) acc rs)
          0 contents
      in
      if total_bytes > Ctx.usable_bytes ctx then raise Stale_plan;
      let dest, fresh =
        match dest with
        | `In_place d ->
          if not (List.mem d leaves) then raise Stale_plan;
          (d, false)
        | `New_place e ->
          if not (Alloc.try_claim (Ctx.alloc ctx) e) then raise Stale_plan;
          claimed := Some e;
          (e, true)
      in
      if List.for_all (fun l -> l = dest) leaves then
        `Done
          (match List.concat_map snd contents with
          | [] -> Rtable.lk ctx.Ctx.rtable
          | rs -> max_key_or ~default:min_int rs)
      else begin
        let first = List.hd leaves and last = List.nth leaves (List.length leaves - 1) in
        let prev_n = Leaf.prev (Ctx.page ctx first) in
        let next_n = Leaf.next (Ctx.page ctx last) in
        (* X locks on side-pointer neighbours outside the unit (§4.3). *)
        List.iter
          (function
            | Some pid when not (List.mem pid leaves) -> acquire ctx held (Resource.Page pid) Mode.X
            | _ -> ())
          [ prev_n; next_n ];
        `Steps
          (group_steps ctx
             {
               rtype = Record.Compact;
               base;
               leaves;
               dest;
               fresh;
               entries;
               low_mark = (List.hd entries).Inode.key;
               prev_n;
               next_n;
               contents;
             })
      end)

(* A pass-2 move is a single-org copying-switching unit whose MODIFY keeps
   the entry key and redirects the child. *)
let execute_move ctx ~base ~org ~dest =
  execute_live ctx (fun ~held ~claimed ->
      acquire ctx held (Resource.Page base) Mode.R;
      let entries = entries_for_leaves ctx ~base ~leaves:[ org ] in
      acquire ctx held (Resource.Page org) Mode.RX;
      if not (Alloc.try_claim (Ctx.alloc ctx) dest) then raise Stale_plan;
      claimed := Some dest;
      let op = Ctx.page ctx org in
      let records = Leaf.records op and low_mark = Leaf.low_mark op in
      let prev_n = Leaf.prev op and next_n = Leaf.next op in
      List.iter
        (function
          | Some pid when pid <> org -> acquire ctx held (Resource.Page pid) Mode.X | _ -> ())
        [ prev_n; next_n ];
      `Steps
        (group_steps ctx
           {
             rtype = Record.Move;
             base;
             leaves = [ org ];
             dest;
             fresh = true;
             entries;
             low_mark;
             prev_n;
             next_n;
             contents = [ (org, records) ];
           }))

let execute_swap ctx ~a_base ~a ~b_base ~b =
  execute_live ctx (fun ~held ~claimed:_ ->
      if a = b then raise Stale_plan;
      acquire ctx held (Resource.Page a_base) Mode.R;
      if b_base <> a_base then acquire ctx held (Resource.Page b_base) Mode.R;
      let ea = List.hd (entries_for_leaves ctx ~base:a_base ~leaves:[ a ]) in
      let eb = List.hd (entries_for_leaves ctx ~base:b_base ~leaves:[ b ]) in
      acquire ctx held (Resource.Page a) Mode.RX;
      acquire ctx held (Resource.Page b) Mode.RX;
      let pa = Ctx.page ctx a and pb = Ctx.page ctx b in
      let recs_a = Leaf.records pa and recs_b = Leaf.records pb in
      let links_a = (Leaf.prev pa, Leaf.next pa) and links_b = (Leaf.prev pb, Leaf.next pb) in
      List.filter_map
        (function Some p when p <> a && p <> b -> Some p | _ -> None)
        [ fst links_a; snd links_a; fst links_b; snd links_b ]
      |> List.sort_uniq compare
      |> List.iter (fun n -> acquire ctx held (Resource.Page n) Mode.X);
      `Steps
        (swap_steps ctx
           {
             a_base;
             b_base;
             pair = { a; b; pa; pb; recs_a; recs_b };
             la = ea.Inode.key;
             lb = eb.Inode.key;
             links_a;
             links_b;
           }))

(* ------------------------------------------------------------------ *)

let run_plan ctx = function
  | Compact { base; leaves; dest } -> execute_compact ctx ~base ~leaves ~dest
  | Swap { a_base; a; b_base; b } -> execute_swap ctx ~a_base ~a ~b_base ~b
  | Move { base; org; dest } -> execute_move ctx ~base ~org ~dest

type Obs.Bus.event += Attempt of plan | Attempt_end of outcome option

let execute_once ctx plan =
  Ctx.emit ctx (Attempt plan);
  match run_plan ctx plan with
  | outcome ->
    Ctx.emit ctx (Attempt_end (Some outcome));
    outcome
  | exception e ->
    Ctx.emit ctx (Attempt_end None);
    raise e

let execute ctx plan =
  let limit = ctx.Ctx.config.Config.unit_retry_limit in
  let rec go attempt =
    match execute_once ctx plan with
    | Gave_up when attempt < limit ->
      Obs.Counter.incr ctx.Ctx.metrics.Metrics.unit_retries;
      Sched.Engine.sleep (1 + attempt);
      go (attempt + 1)
    | Done _ as outcome ->
      (* Model the unit's page I/O; overlapping these sleeps is where
         parallel workers win. *)
      if ctx.Ctx.config.Config.io_pacing > 0 then
        Sched.Engine.sleep ctx.Ctx.config.Config.io_pacing;
      outcome
    | outcome -> outcome
  in
  go 0
