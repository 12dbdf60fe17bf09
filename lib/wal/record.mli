(** Log record bodies.

    Three families of records coexist in the one log, as in the paper:

    - ordinary transaction records with physical redo/undo information
      ([Update], [Clr], begin/commit/abort);
    - the reorganizer's records from §5 — [Reorg_begin] (the BEGIN record
      listing every base and leaf page of the unit), [Reorg_move] (MOVE, whose
      payload is full record contents or, under careful writing, keys only),
      [Reorg_modify] (MODIFY, the base-page key/pointer changes) and
      [Reorg_end] (END);
    - internal-page-reorganization records from §7 — side-file activity,
      [Stable_key] stable points, and the final [Switch];
    - [Checkpoint], which carries the active-transaction table and the
      reorganizer's small system table (LK, BEGIN/most-recent LSNs, CK).

    Records are plain values; {!encode}/{!decode} give them a deterministic
    binary form used for log-size accounting (a first-class metric in the
    paper) and round-trip testing. *)

type txn_id = int
type key = int
type page_id = int

type reorg_type = Compact | Swap | Move

type move_payload =
  | Full_records of (key * string) list
      (** Record contents travel in the log — required for swaps. *)
  | Keys_only of key list
      (** Careful writing lets the log carry only the keys (§5). *)

type base_edit =
  | Insert_entry of { key : key; child : page_id }
  | Delete_entry of { key : key; child : page_id }
  | Update_entry of { org_key : key; org_child : page_id; new_key : key; new_child : page_id }

type side_op =
  | Side_insert of { key : key; child : page_id }
  | Side_delete of { key : key; child : page_id }

type reorg_table = {
  rt_lk : key;  (** largest key of the last finished reorganization unit *)
  rt_unit : int option;  (** id of the in-flight unit, if any *)
  rt_begin_lsn : Lsn.t;  (** BEGIN LSN of the in-flight unit ([Lsn.nil] if none) *)
  rt_last_lsn : Lsn.t;  (** most recent LSN of the in-flight unit *)
  rt_ck : key option;  (** CK: low mark of the base page pass 3 is reading *)
}
(** Image of the reorganizer's in-memory system table (§5), copied into every
    checkpoint record. *)

type clr_action =
  | Undo_insert of { key : key }  (** compensates a [Leaf_insert] *)
  | Undo_delete of { key : key; payload : string }  (** compensates a [Leaf_delete] *)
  | Undo_side of side_op  (** compensates a [Side_file] entry *)
  | Undo_phys of { page : page_id; off : int; bytes : string }
      (** physical compensation: restores the before-image of an [Update]
          belonging to a torn (unsealed) structural sequence *)

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
      prev : Lsn.t;  (** previous record of the same transaction *)
    }
      (** Physical record used for structural changes (page splits,
          side-pointer maintenance, allocation kind bytes, meta-page
          updates).  A {e complete} structural sequence is sealed by
          [Nta_end] (a nested top action) and survives rollback; a torn one
          (crash before the seal reached the stable log, or a baseline
          reorganizer's aborted block operation) is undone physically from
          the before-images. *)
  | Leaf_insert of { txn : txn_id; page : page_id; key : key; payload : string; prev : Lsn.t }
      (** Logical, undoable record insertion (redo guarded by the page LSN;
          undo re-descends the tree, so it remains correct even if the
          reorganizer has moved the record since). *)
  | Leaf_delete of { txn : txn_id; page : page_id; key : key; payload : string; prev : Lsn.t }
  | Clr of { txn : txn_id; action : clr_action; undo_next : Lsn.t }
  | Nta_end of { txn : txn_id; undo_next : Lsn.t }
      (** Seals a nested top action: rollback jumps straight to [undo_next],
          leaving the sealed structural records in place (ARIES dummy CLR). *)
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

val empty_reorg_table : reorg_table

val encode : body -> string
(** Deterministic binary encoding. *)

val decode : string -> body
(** Inverse of {!encode}.  Raises [Failure] on malformed input. *)

val encoded_size : body -> int
(** [String.length (encode body)], computed by the same encoder writing to a
    byte-counting sink: nothing is allocated for the payloads. *)

val pp : Format.formatter -> body -> unit
val reorg_type_to_string : reorg_type -> string
