type txn_id = int
type key = int
type page_id = int

type reorg_type = Compact | Swap | Move

type move_payload =
  | Full_records of (key * string) list
  | Keys_only of key list

type base_edit =
  | Insert_entry of { key : key; child : page_id }
  | Delete_entry of { key : key; child : page_id }
  | Update_entry of { org_key : key; org_child : page_id; new_key : key; new_child : page_id }

type side_op =
  | Side_insert of { key : key; child : page_id }
  | Side_delete of { key : key; child : page_id }

type reorg_table = {
  rt_lk : key;
  rt_unit : int option;
  rt_begin_lsn : Lsn.t;
  rt_last_lsn : Lsn.t;
  rt_ck : key option;
}

type clr_action =
  | Undo_insert of { key : key }
  | Undo_delete of { key : key; payload : string }
  | Undo_side of side_op
  | Undo_phys of { page : page_id; off : int; bytes : string }

type body =
  | Txn_begin of txn_id
  | Txn_commit of txn_id
  | Txn_abort of txn_id
  | Update of {
      txn : txn_id;
      page : page_id;
      off : int;
      before : string;
      after : string;
      prev : Lsn.t;
    }
  | Leaf_insert of { txn : txn_id; page : page_id; key : key; payload : string; prev : Lsn.t }
  | Leaf_delete of { txn : txn_id; page : page_id; key : key; payload : string; prev : Lsn.t }
  | Clr of { txn : txn_id; action : clr_action; undo_next : Lsn.t }
  | Nta_end of { txn : txn_id; undo_next : Lsn.t }
  | Reorg_begin of {
      unit_id : int;
      rtype : reorg_type;
      base_pages : page_id list;
      leaf_pages : page_id list;
    }
  | Reorg_move of {
      unit_id : int;
      org : page_id;
      dest : page_id;
      payload : move_payload;
      prev : Lsn.t;
    }
  | Reorg_modify of { unit_id : int; base : page_id; edits : base_edit list; prev : Lsn.t }
  | Reorg_end of { unit_id : int; largest_key : key; prev : Lsn.t }
  | Side_file of { txn : txn_id; op : side_op; prev : Lsn.t }
  | Side_applied of { op : side_op }
  | Stable_key of { key : key; new_root : page_id }
  | Switch of { old_root : page_id; new_root : page_id; old_name : int; new_name : int }
  | Checkpoint of {
      active_txns : (txn_id * Lsn.t) list;
      reorg : reorg_table;
      dirty_pages : page_id list;
    }

let empty_reorg_table =
  { rt_lk = min_int; rt_unit = None; rt_begin_lsn = Lsn.nil; rt_last_lsn = Lsn.nil; rt_ck = None }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The encoder writes to a sink that either appends to a buffer or only
   counts bytes, so [encoded_size] measures a record without materialising
   it (two 512-byte page images, for a physical update) while the layout
   stays defined in one place. *)
type sink = Buf of Buffer.t | Count of int ref

let add_char sink c =
  match sink with Buf b -> Buffer.add_char b c | Count c -> incr c

let add_int sink n =
  match sink with
  | Buf b -> Buffer.add_int64_be b (Int64.of_int n)
  | Count c -> c := !c + 8

let add_string sink s =
  add_int sink (String.length s);
  match sink with
  | Buf b -> Buffer.add_string b s
  | Count c -> c := !c + String.length s

let add_list sink f xs =
  add_int sink (List.length xs);
  List.iter (f sink) xs

let add_opt sink f = function
  | None -> add_char sink '\000'
  | Some x ->
    add_char sink '\001';
    f sink x

let add_side_op sink = function
  | Side_insert { key; child } ->
    add_char sink 'i';
    add_int sink key;
    add_int sink child
  | Side_delete { key; child } ->
    add_char sink 'd';
    add_int sink key;
    add_int sink child

let add_edit sink = function
  | Insert_entry { key; child } ->
    add_char sink 'i';
    add_int sink key;
    add_int sink child
  | Delete_entry { key; child } ->
    add_char sink 'd';
    add_int sink key;
    add_int sink child
  | Update_entry { org_key; org_child; new_key; new_child } ->
    add_char sink 'u';
    add_int sink org_key;
    add_int sink org_child;
    add_int sink new_key;
    add_int sink new_child

let reorg_type_tag = function Compact -> 'c' | Swap -> 's' | Move -> 'm'

let write sink body =
  match body with
  | Txn_begin txn ->
    add_char sink 'B';
    add_int sink txn
  | Txn_commit txn ->
    add_char sink 'C';
    add_int sink txn
  | Txn_abort txn ->
    add_char sink 'A';
    add_int sink txn
  | Update { txn; page; off; before; after; prev } ->
    add_char sink 'U';
    add_int sink txn;
    add_int sink page;
    add_int sink off;
    add_string sink before;
    add_string sink after;
    add_int sink prev
  | Leaf_insert { txn; page; key; payload; prev } ->
    add_char sink 'I';
    add_int sink txn;
    add_int sink page;
    add_int sink key;
    add_string sink payload;
    add_int sink prev
  | Leaf_delete { txn; page; key; payload; prev } ->
    add_char sink 'T';
    add_int sink txn;
    add_int sink page;
    add_int sink key;
    add_string sink payload;
    add_int sink prev
  | Clr { txn; action; undo_next } ->
    add_char sink 'L';
    add_int sink txn;
    (match action with
    | Undo_insert { key } ->
      add_char sink 'i';
      add_int sink key
    | Undo_delete { key; payload } ->
      add_char sink 'd';
      add_int sink key;
      add_string sink payload
    | Undo_side op ->
      add_char sink 's';
      add_side_op sink op
    | Undo_phys { page; off; bytes } ->
      add_char sink 'p';
      add_int sink page;
      add_int sink off;
      add_string sink bytes);
    add_int sink undo_next
  | Nta_end { txn; undo_next } ->
    add_char sink 'N';
    add_int sink txn;
    add_int sink undo_next
  | Reorg_begin { unit_id; rtype; base_pages; leaf_pages } ->
    add_char sink 'R';
    add_int sink unit_id;
    add_char sink (reorg_type_tag rtype);
    add_list sink add_int base_pages;
    add_list sink add_int leaf_pages
  | Reorg_move { unit_id; org; dest; payload; prev } ->
    add_char sink 'M';
    add_int sink unit_id;
    add_int sink org;
    add_int sink dest;
    (match payload with
    | Full_records recs ->
      add_char sink 'f';
      add_list sink
        (fun sink (k, v) ->
          add_int sink k;
          add_string sink v)
        recs
    | Keys_only keys ->
      add_char sink 'k';
      add_list sink add_int keys);
    add_int sink prev
  | Reorg_modify { unit_id; base; edits; prev } ->
    add_char sink 'D';
    add_int sink unit_id;
    add_int sink base;
    add_list sink add_edit edits;
    add_int sink prev
  | Reorg_end { unit_id; largest_key; prev } ->
    add_char sink 'E';
    add_int sink unit_id;
    add_int sink largest_key;
    add_int sink prev
  | Side_file { txn; op; prev } ->
    add_char sink 'S';
    add_int sink txn;
    add_side_op sink op;
    add_int sink prev
  | Side_applied { op } ->
    add_char sink 'P';
    add_side_op sink op
  | Stable_key { key; new_root } ->
    add_char sink 'K';
    add_int sink key;
    add_int sink new_root
  | Switch { old_root; new_root; old_name; new_name } ->
    add_char sink 'W';
    add_int sink old_root;
    add_int sink new_root;
    add_int sink old_name;
    add_int sink new_name
  | Checkpoint { active_txns; reorg; dirty_pages } ->
    add_char sink 'X';
    add_list sink
      (fun sink (t, l) ->
        add_int sink t;
        add_int sink l)
      active_txns;
    add_int sink reorg.rt_lk;
    add_opt sink add_int reorg.rt_unit;
    add_int sink reorg.rt_begin_lsn;
    add_int sink reorg.rt_last_lsn;
    add_opt sink add_int reorg.rt_ck;
    add_list sink add_int dirty_pages

let encode body =
  let b = Buffer.create 64 in
  write (Buf b) body;
  Buffer.contents b

let encoded_size body =
  let c = ref 0 in
  write (Count c) body;
  !c

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type cursor = { s : string; mutable pos : int }

let fail () = failwith "Record.decode: malformed record"

let read_char c =
  if c.pos >= String.length c.s then fail ();
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let read_int c =
  if c.pos + 8 > String.length c.s then fail ();
  let v = Int64.to_int (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let read_string c =
  let n = read_int c in
  if n < 0 || c.pos + n > String.length c.s then fail ();
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let read_list c f =
  let n = read_int c in
  if n < 0 then fail ();
  List.init n (fun _ -> f c)

let read_opt c f =
  match read_char c with '\000' -> None | '\001' -> Some (f c) | _ -> fail ()

let read_side_op c =
  match read_char c with
  | 'i' ->
    let key = read_int c in
    let child = read_int c in
    Side_insert { key; child }
  | 'd' ->
    let key = read_int c in
    let child = read_int c in
    Side_delete { key; child }
  | _ -> fail ()

let read_edit c =
  match read_char c with
  | 'i' ->
    let key = read_int c in
    let child = read_int c in
    Insert_entry { key; child }
  | 'd' ->
    let key = read_int c in
    let child = read_int c in
    Delete_entry { key; child }
  | 'u' ->
    let org_key = read_int c in
    let org_child = read_int c in
    let new_key = read_int c in
    let new_child = read_int c in
    Update_entry { org_key; org_child; new_key; new_child }
  | _ -> fail ()

let read_reorg_type c =
  match read_char c with 'c' -> Compact | 's' -> Swap | 'm' -> Move | _ -> fail ()

let decode s =
  let c = { s; pos = 0 } in
  let body =
    match read_char c with
    | 'B' -> Txn_begin (read_int c)
    | 'C' -> Txn_commit (read_int c)
    | 'A' -> Txn_abort (read_int c)
    | 'U' ->
      let txn = read_int c in
      let page = read_int c in
      let off = read_int c in
      let before = read_string c in
      let after = read_string c in
      let prev = read_int c in
      Update { txn; page; off; before; after; prev }
    | 'I' ->
      let txn = read_int c in
      let page = read_int c in
      let key = read_int c in
      let payload = read_string c in
      let prev = read_int c in
      Leaf_insert { txn; page; key; payload; prev }
    | 'T' ->
      let txn = read_int c in
      let page = read_int c in
      let key = read_int c in
      let payload = read_string c in
      let prev = read_int c in
      Leaf_delete { txn; page; key; payload; prev }
    | 'L' ->
      let txn = read_int c in
      let action =
        match read_char c with
        | 'i' -> Undo_insert { key = read_int c }
        | 'd' ->
          let key = read_int c in
          let payload = read_string c in
          Undo_delete { key; payload }
        | 's' -> Undo_side (read_side_op c)
        | 'p' ->
          let page = read_int c in
          let off = read_int c in
          let bytes = read_string c in
          Undo_phys { page; off; bytes }
        | _ -> fail ()
      in
      let undo_next = read_int c in
      Clr { txn; action; undo_next }
    | 'N' ->
      let txn = read_int c in
      let undo_next = read_int c in
      Nta_end { txn; undo_next }
    | 'R' ->
      let unit_id = read_int c in
      let rtype = read_reorg_type c in
      let base_pages = read_list c read_int in
      let leaf_pages = read_list c read_int in
      Reorg_begin { unit_id; rtype; base_pages; leaf_pages }
    | 'M' ->
      let unit_id = read_int c in
      let org = read_int c in
      let dest = read_int c in
      let payload =
        match read_char c with
        | 'f' ->
          Full_records
            (read_list c (fun c ->
                 let k = read_int c in
                 let v = read_string c in
                 (k, v)))
        | 'k' -> Keys_only (read_list c read_int)
        | _ -> fail ()
      in
      let prev = read_int c in
      Reorg_move { unit_id; org; dest; payload; prev }
    | 'D' ->
      let unit_id = read_int c in
      let base = read_int c in
      let edits = read_list c read_edit in
      let prev = read_int c in
      Reorg_modify { unit_id; base; edits; prev }
    | 'E' ->
      let unit_id = read_int c in
      let largest_key = read_int c in
      let prev = read_int c in
      Reorg_end { unit_id; largest_key; prev }
    | 'S' ->
      let txn = read_int c in
      let op = read_side_op c in
      let prev = read_int c in
      Side_file { txn; op; prev }
    | 'P' -> Side_applied { op = read_side_op c }
    | 'K' ->
      let key = read_int c in
      let new_root = read_int c in
      Stable_key { key; new_root }
    | 'W' ->
      let old_root = read_int c in
      let new_root = read_int c in
      let old_name = read_int c in
      let new_name = read_int c in
      Switch { old_root; new_root; old_name; new_name }
    | 'X' ->
      let active_txns =
        read_list c (fun c ->
            let t = read_int c in
            let l = read_int c in
            (t, l))
      in
      let rt_lk = read_int c in
      let rt_unit = read_opt c read_int in
      let rt_begin_lsn = read_int c in
      let rt_last_lsn = read_int c in
      let rt_ck = read_opt c read_int in
      let dirty_pages = read_list c read_int in
      Checkpoint
        { active_txns; reorg = { rt_lk; rt_unit; rt_begin_lsn; rt_last_lsn; rt_ck }; dirty_pages }
    | _ -> fail ()
  in
  if c.pos <> String.length s then fail ();
  body

let reorg_type_to_string = function Compact -> "compact" | Swap -> "swap" | Move -> "move"

let pp_side_op ppf = function
  | Side_insert { key; child } -> Format.fprintf ppf "ins(%d->%d)" key child
  | Side_delete { key; child } -> Format.fprintf ppf "del(%d->%d)" key child

let pp ppf = function
  | Txn_begin t -> Format.fprintf ppf "BEGIN txn=%d" t
  | Txn_commit t -> Format.fprintf ppf "COMMIT txn=%d" t
  | Txn_abort t -> Format.fprintf ppf "ABORT txn=%d" t
  | Update { txn; page; off; before; after; _ } ->
    Format.fprintf ppf "UPDATE txn=%d page=%d off=%d len=%d/%d" txn page off
      (String.length before) (String.length after)
  | Leaf_insert { txn; page; key; _ } ->
    Format.fprintf ppf "LEAF-INSERT txn=%d page=%d key=%d" txn page key
  | Leaf_delete { txn; page; key; _ } ->
    Format.fprintf ppf "LEAF-DELETE txn=%d page=%d key=%d" txn page key
  | Clr { txn; action; undo_next } ->
    let a =
      match action with
      | Undo_insert { key } -> Printf.sprintf "undo-ins(%d)" key
      | Undo_delete { key; _ } -> Printf.sprintf "undo-del(%d)" key
      | Undo_side _ -> "undo-side"
      | Undo_phys { page; off; _ } -> Printf.sprintf "undo-phys(%d@%d)" page off
    in
    Format.fprintf ppf "CLR txn=%d %s undo-next=%d" txn a undo_next
  | Nta_end { txn; undo_next } ->
    Format.fprintf ppf "NTA-END txn=%d undo-next=%d" txn undo_next
  | Reorg_begin { unit_id; rtype; base_pages; leaf_pages } ->
    Format.fprintf ppf "REORG-BEGIN unit=%d type=%s bases=[%s] leaves=[%s]" unit_id
      (reorg_type_to_string rtype)
      (String.concat ";" (List.map string_of_int base_pages))
      (String.concat ";" (List.map string_of_int leaf_pages))
  | Reorg_move { unit_id; org; dest; payload; _ } ->
    let pl =
      match payload with
      | Full_records rs -> Printf.sprintf "%d records" (List.length rs)
      | Keys_only ks -> Printf.sprintf "%d keys" (List.length ks)
    in
    Format.fprintf ppf "REORG-MOVE unit=%d %d->%d (%s)" unit_id org dest pl
  | Reorg_modify { unit_id; base; edits; _ } ->
    Format.fprintf ppf "REORG-MODIFY unit=%d base=%d edits=%d" unit_id base (List.length edits)
  | Reorg_end { unit_id; largest_key; _ } ->
    Format.fprintf ppf "REORG-END unit=%d lk=%d" unit_id largest_key
  | Side_file { txn; op; _ } -> Format.fprintf ppf "SIDE txn=%d %a" txn pp_side_op op
  | Side_applied { op } -> Format.fprintf ppf "SIDE-APPLIED %a" pp_side_op op
  | Stable_key { key; new_root } -> Format.fprintf ppf "STABLE-KEY %d root=%d" key new_root
  | Switch { old_root; new_root; old_name; new_name } ->
    Format.fprintf ppf "SWITCH root %d->%d name %d->%d" old_root new_root old_name new_name
  | Checkpoint { active_txns; reorg; dirty_pages } ->
    Format.fprintf ppf "CHECKPOINT txns=%d reorg-unit=%s dirty=%d" (List.length active_txns)
      (match reorg.rt_unit with None -> "-" | Some u -> string_of_int u)
      (List.length dirty_pages)
