module Leaf = Btree.Leaf
module Inode = Btree.Inode
module Tree = Btree.Tree
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource

type group_plan =
  | Group of { leaves : int list; max_key : int }
  | Skip of int (* well-filled or unpairable leaf: advance LK to this key *)
  | Exhausted (* nothing with keys > after_key under this base *)

let plan_group_v ?(hi_key = max_int) ctx ~base ~after_key =
  let bp = Ctx.page ctx base in
  let target = ctx.Ctx.config.Config.f2 *. float_of_int (Ctx.usable_bytes ctx) in
  let target = int_of_float target in
  let entries =
    List.filter (fun e -> e.Inode.key > after_key && e.Inode.key < hi_key) (Inode.entries bp)
  in
  match entries with
  | [] -> Exhausted
  | first :: rest ->
    let leaf_bytes pid = Leaf.live_bytes (Ctx.page ctx pid) in
    let leaf_max pid =
      match Leaf.max_key (Ctx.page ctx pid) with Some k -> k | None -> after_key
    in
    (* Greedily extend the group while the total still fits the target. *)
    let rec extend acc bytes max_key = function
      | e :: more when bytes + leaf_bytes e.Inode.child <= target ->
        extend (e.Inode.child :: acc) (bytes + leaf_bytes e.Inode.child)
          (max max_key (leaf_max e.Inode.child))
          more
      | _ -> (List.rev acc, max_key)
    in
    let first_bytes = leaf_bytes first.Inode.child in
    if first_bytes > target then
      (* Already at or above the target fill: nothing to gain. *)
      Skip (max (leaf_max first.Inode.child) first.Inode.key)
    else begin
      let group, max_key =
        extend [ first.Inode.child ] first_bytes
          (max (leaf_max first.Inode.child) first.Inode.key)
          rest
      in
      match group with
      | [ _only ] ->
        (* No neighbour fits with it: compaction cannot improve this leaf. *)
        Skip max_key
      | leaves -> Group { leaves; max_key }
    end

(* Base page whose key range covers keys just above [k], if the tree has
   base pages at all. *)
let base_covering ctx k =
  let tree = Ctx.tree ctx in
  let key = if k = max_int then k else k + 1 in
  Tree.parent_of_leaf tree key

let in_place_dest ctx ~l leaves =
  (* Under the paper heuristic the in-place destination also respects the
     finished frontier L (smallest member beyond it), keeping constructed
     pages in disk order; the naive baselines just take the smallest member,
     which scrambles the order and forces pass-2 swaps. *)
  match ctx.Ctx.config.Config.heuristic with
  | Config.Paper_heuristic -> begin
    match List.sort compare (List.filter (fun p -> p > l) leaves) with
    | d :: _ -> d
    | [] -> List.fold_left min (List.hd leaves) leaves
  end
  | Config.First_free | Config.No_new_place -> List.fold_left min (List.hd leaves) leaves

let run_bounded ctx ~lo_key ~hi_key =
  let tree = Ctx.tree ctx in
  let units = ref 0 in
  if Tree.height tree > 1 then begin
    Ctx.acquire ctx (Resource.Tree (Tree.tree_name tree)) Mode.IX;
    let leaf_lo, _ = Pager.Alloc.leaf_zone (Ctx.alloc ctx) in
    (* L: the largest finished (constructed) leaf page id (§6.1). *)
    let l = ref (leaf_lo - 1) in
    let stale = ref 0 in
    if lo_key > Rtable.lk ctx.Ctx.rtable then Rtable.set_lk ctx.Ctx.rtable lo_key;
    let rec step () =
      Sched.Engine.yield ();
      let k = Rtable.lk ctx.Ctx.rtable in
      if k >= hi_key then ()
      else
      match base_covering ctx k with
      | None -> ()
      | Some base -> begin
        match plan_group_v ~hi_key ctx ~base ~after_key:k with
        | Exhausted -> begin
          (* Jump to the next base page (Get_Next). *)
          match Tree.next_base tree k with
          | None -> ()
          | Some next ->
            let low = Inode.low_mark (Ctx.page ctx next) in
            (* Restart planning just below that base's first entry. *)
            if low > k && low < hi_key then begin
              Rtable.set_lk ctx.Ctx.rtable (low - 1);
              step ()
            end
        end
        | Skip key ->
          Rtable.set_lk ctx.Ctx.rtable (max k key);
          step ()
        | Group { leaves; max_key } ->
          (* §6: a lock envelope may construct several pages before letting
             the base page go (config.unit_pages); the base R lock is held
             re-entrantly across the units of the envelope. *)
          let envelope = max 1 ctx.Ctx.config.Config.unit_pages in
          let run_group leaves max_key =
            let c = List.hd leaves in
            let dest =
              match Free_space.choose ctx ~l:!l ~c with
              | Some e -> `New_place e
              | None -> `In_place (in_place_dest ctx ~l:!l leaves)
            in
            let dest_pid = match dest with `New_place e -> e | `In_place d -> d in
            match Unit_exec.execute ctx (Unit_exec.Compact { base; leaves; dest }) with
            | Unit_exec.Done _ ->
              incr units;
              stale := 0;
              if dest_pid > !l then l := dest_pid;
              true
            | Unit_exec.Stale ->
              incr stale;
              if !stale > 5 then begin
                stale := 0;
                Rtable.set_lk ctx.Ctx.rtable (max k max_key)
              end;
              false
            | Unit_exec.Gave_up ->
              (* Skip this group rather than spin. *)
              Rtable.set_lk ctx.Ctx.rtable (max k max_key);
              false
          in
          if envelope = 1 then ignore (run_group leaves max_key)
          else begin
            let held_envelope = ref false in
            (try
               Ctx.acquire ctx (Resource.Page base) Lockmgr.Mode.R;
               held_envelope := true
             with Transact.Lock_client.Deadlock_victim -> ());
            let rec drive n leaves max_key =
              if run_group leaves max_key && n + 1 < envelope then
                (* Plan the next group under the same base. *)
                match plan_group_v ~hi_key ctx ~base ~after_key:(Rtable.lk ctx.Ctx.rtable) with
                | Group { leaves; max_key } -> drive (n + 1) leaves max_key
                | Skip key -> Rtable.set_lk ctx.Ctx.rtable (max (Rtable.lk ctx.Ctx.rtable) key)
                | Exhausted -> ()
            in
            drive 0 leaves max_key;
            if !held_envelope then Ctx.release ctx (Resource.Page base) Lockmgr.Mode.R
          end;
          step ()
      end
    in
    step ();
    Ctx.release ctx (Resource.Tree (Tree.tree_name tree)) Mode.IX
  end;
  !units

let run ctx = run_bounded ctx ~lo_key:min_int ~hi_key:max_int

(* Parallel pass 1 (the paper's stated future work): partition the key space
   at base-page boundaries and run one worker per range, each with its own
   lock identity and unit-id lattice.  Units stay unchanged, so user
   transactions interact with each worker exactly as with the single
   reorganizer. *)
let run_parallel ctx ~workers =
  let tree = Ctx.tree ctx in
  if workers <= 1 || Tree.height tree <= 1 then run ctx
  else begin
    (* Collect the base-page low marks as cut candidates. *)
    let boundaries = ref [] in
    (match Tree.first_base tree with
    | None -> ()
    | Some b ->
      let rec walk low =
        boundaries := low :: !boundaries;
        match Tree.next_base tree low with
        | Some nb -> walk (Inode.low_mark (Ctx.page ctx nb))
        | None -> ()
      in
      walk (Inode.low_mark (Ctx.page ctx b)));
    let bounds = Array.of_list (List.rev !boundaries) in
    let nb = Array.length bounds in
    let w = min workers (max 1 nb) in
    let cut i = if i = 0 then min_int else bounds.(i * nb / w) in
    let total = ref 0 in
    let remaining = ref w in
    let done_q = Sched.Waitq.create () in
    for i = 0 to w - 1 do
      let wctx = Ctx.worker ctx ~index:i ~count:w in
      let lo_key = cut i in
      let hi_key = if i = w - 1 then max_int else cut (i + 1) in
      Sched.Engine.spawn_child (fun () ->
          let u = run_bounded wctx ~lo_key ~hi_key in
          total := !total + u;
          (* Propagate progress into the parent's system table. *)
          if Rtable.lk wctx.Ctx.rtable > Rtable.lk ctx.Ctx.rtable then
            Rtable.set_lk ctx.Ctx.rtable (Rtable.lk wctx.Ctx.rtable);
          decr remaining;
          if !remaining = 0 then Sched.Waitq.broadcast done_q)
    done;
    if !remaining > 0 then Sched.Waitq.wait done_q;
    !total
  end
