module Tree = Btree.Tree
module Leaf_order = Btree.Leaf_order
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource

let out_of_order ctx = Leaf_order.out_of_order (Leaf_order.create (Ctx.tree ctx))

let run ctx =
  let tree = Ctx.tree ctx in
  let alloc = Ctx.alloc ctx in
  let swaps = ref 0 and moves = ref 0 in
  if Tree.height tree > 1 then begin
    Ctx.acquire ctx (Resource.Tree (Tree.tree_name tree)) Mode.IX;
    (* A deallocated page awaiting careful-writing durability is not yet
       reusable: force the write it waits on, so whether a slot counts as
       free never depends on which pages an eviction happened to flush. *)
    let free slot =
      (match Pager.Alloc.pending_release alloc slot with
      | Some dep -> Pager.Buffer_pool.flush_page (Ctx.pool ctx) dep
      | None -> ());
      Pager.Alloc.is_free alloc slot
    in
    let order = Leaf_order.create tree in
    (* Positions below [frontier] are final (or permanently skipped). *)
    let frontier = ref 0 in
    let stale = ref 0 in
    (* Re-plan from the same frontier on a re-read cursor, but never spin
       forever. *)
    let replan i =
      Leaf_order.reload order;
      incr stale;
      if !stale > 5 then begin
        stale := 0;
        frontier := i + 1
      end
    in
    let continue_ = ref true in
    while !continue_ do
      Sched.Engine.yield ();
      match Leaf_order.next order ~from:!frontier with
      | None -> continue_ := false
      | Some i -> begin
        let pid = Leaf_order.leaf order i and target = Leaf_order.slot order i in
        (* A swap logs and rewrites two full pages, so before swapping try to
           cascade: if the leaf occupying [target] can move straight into its
           own final slot, one cheap move vacates [target] and the next
           iteration finishes with a second move.  Under the paper heuristic
           pass 1 leaves the file nearly sorted, so the occupant's slot is
           usually free; under first-free placement it rarely is. *)
        let plan =
          if free target then
            Some (Unit_exec.Move { base = Leaf_order.base order i; org = pid; dest = target })
          else
            match Leaf_order.position order target with
            | Some j when j > i && free (Leaf_order.slot order j) ->
              Some
                (Unit_exec.Move
                   { base = Leaf_order.base order j; org = target; dest = Leaf_order.slot order j })
            | Some j ->
              Some
                (Unit_exec.Swap
                   { a_base = Leaf_order.base order i; a = pid; b_base = Leaf_order.base order j;
                     b = target })
            | None -> None (* a leaf the cursor has not seen occupies [target] *)
        in
        match plan with
        | None -> replan i
        | Some plan -> begin
          match Unit_exec.execute ctx plan with
          | Unit_exec.Done _ ->
            stale := 0;
            (match plan with
            | Unit_exec.Swap { a; b; _ } ->
              incr swaps;
              Leaf_order.swapped order a b;
              frontier := i + 1
            | Unit_exec.Move { org; dest; _ } ->
              incr moves;
              Leaf_order.moved order ~org ~dest;
              (* A cascade move leaves position [i] for the next iteration. *)
              if org = pid then frontier := i + 1
            | Unit_exec.Compact _ -> ())
          | Unit_exec.Stale -> replan i
          | Unit_exec.Gave_up ->
            Leaf_order.reload order;
            frontier := i + 1
        end
      end
    done;
    Ctx.release ctx (Resource.Tree (Tree.tree_name tree)) Mode.IX
  end;
  (!swaps, !moves)
