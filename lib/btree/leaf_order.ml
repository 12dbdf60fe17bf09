type t = {
  tree : Tree.t;
  leaf_lo : int;
  mutable leaves : int array;  (* key order *)
  mutable bases : int array;  (* base page holding each position's entry *)
  pos : (int, int) Hashtbl.t;  (* leaf pid -> position *)
  span : (int, int * int) Hashtbl.t;  (* base pid -> first position, entry count *)
}

let reload t =
  Hashtbl.clear t.pos;
  Hashtbl.clear t.span;
  let leaves = ref [] and bases = ref [] and n = ref 0 in
  let add ~base child =
    Hashtbl.replace t.pos child !n;
    leaves := child :: !leaves;
    bases := base :: !bases;
    incr n
  in
  let rec walk pid =
    let p = Tree.page t.tree pid in
    (* Read the entries before recursing: later fixes may evict this frame. *)
    let children = List.map (fun e -> e.Inode.child) (Inode.entries p) in
    if Inode.level p = 1 then begin
      Hashtbl.replace t.span pid (!n, List.length children);
      List.iter (add ~base:pid) children
    end
    else List.iter walk children
  in
  let root = Tree.root t.tree in
  if Leaf.is_leaf (Tree.page t.tree root) then add ~base:(-1) root else walk root;
  t.leaves <- Array.of_list (List.rev !leaves);
  t.bases <- Array.of_list (List.rev !bases)

let create tree =
  let leaf_lo, _ = Pager.Alloc.leaf_zone (Tree.alloc tree) in
  let t =
    {
      tree;
      leaf_lo;
      leaves = [||];
      bases = [||];
      pos = Hashtbl.create 1024;
      span = Hashtbl.create 64;
    }
  in
  reload t;
  t

let length t = Array.length t.leaves
let leaf t i = t.leaves.(i)
let base t i = t.bases.(i)
let slot t i = t.leaf_lo + i
let position t pid = Hashtbl.find_opt t.pos pid
let leaves t = Array.to_list t.leaves

let out_of_order t =
  let n = ref 0 in
  Array.iteri (fun i pid -> if pid <> slot t i then incr n) t.leaves;
  !n

let rec first_misplaced t i =
  if i >= length t then None
  else if t.leaves.(i) <> slot t i then Some i
  else first_misplaced t (i + 1)

(* Does the base page covering position [i] still list exactly the leaves
   the cursor has for it? *)
let base_agrees t i =
  match Hashtbl.find_opt t.span t.bases.(i) with
  | None -> true (* the root is a leaf: no base page *)
  | Some (first, count) ->
    let p = Tree.page t.tree t.bases.(i) in
    Inode.is_internal p
    && Inode.level p = 1
    && Inode.nentries p = count
    &&
    let rec same k =
      k >= count || ((Inode.entry_at p k).Inode.child = t.leaves.(first + k) && same (k + 1))
    in
    same 0

let next t ~from =
  match first_misplaced t (max 0 from) with
  | Some i when base_agrees t i -> Some i
  | Some _ | None ->
    reload t;
    first_misplaced t (max 0 from)

let moved t ~org ~dest =
  match position t org with
  | Some i ->
    Hashtbl.remove t.pos org;
    Hashtbl.replace t.pos dest i;
    t.leaves.(i) <- dest
  | None -> reload t

let swapped t a b =
  match (position t a, position t b) with
  | Some i, Some j ->
    Hashtbl.replace t.pos a j;
    Hashtbl.replace t.pos b i;
    t.leaves.(i) <- b;
    t.leaves.(j) <- a
  | _ -> reload t
