(** The B+-tree proper: a primary index whose leaves hold the records.

    This module implements the {e unlocked} tree operations — descent,
    insertion with page splits, deletion with the free-at-empty policy
    ([JS93], the policy the paper assumes: "non-empty sparse nodes are never
    consolidated, but when a node becomes completely empty, its page is
    deallocated"), range scans over the leaf side-pointer chain, and the
    Get_Next base-page cursor the reorganizer uses.

    Concurrency is layered {e above}: {!Access} takes the paper's locks and
    then calls these primitives.  All structural changes are logged as
    redo-only physical records; record-level changes are logged logically
    (see {!Transact.Journal}), so everything here is redoable and
    record-level changes are undoable. *)

type t

exception Duplicate_key of int
exception Record_too_large of int

exception Not_a_node of int
(** A descent reached this page id and found neither a leaf nor an internal
    node (a freed page, say).  The tree is damaged there; a descent that
    read the page as a node could loop for ever. *)

val create :
  ?olc:Olc.t ->
  journal:Transact.Journal.t ->
  alloc:Pager.Alloc.t ->
  meta_pid:int ->
  tree_name:int ->
  unit ->
  t
(** Format [meta_pid] and a fresh empty root leaf.  [olc] shares an existing
    version table (page ids are file-global); omitted, a fresh one is made. *)

val attach :
  ?olc:Olc.t ->
  journal:Transact.Journal.t ->
  alloc:Pager.Alloc.t ->
  meta_pid:int ->
  unit ->
  t
(** Open an existing tree (e.g. after restart).  Pass 3 attaches its scratch
    tree with [~olc:(Tree.olc base_tree)] so new-tree structure writes are
    visible to optimistic readers of the same file. *)

val journal : t -> Transact.Journal.t
val pool : t -> Pager.Buffer_pool.t
val alloc : t -> Pager.Alloc.t
val meta_pid : t -> int

val olc : t -> Olc.t
(** The file's optimistic-read version table; bumped by every structural
    page write made through this module. *)

val root : t -> int
val set_root : t -> ?txn:Transact.Txn.t -> int -> unit
(** Logged meta-page update (the switch writes this). *)

val tree_name : t -> int
val set_tree_name : t -> ?txn:Transact.Txn.t -> int -> unit
val reorg_bit : t -> bool
val set_reorg_bit : t -> bool -> unit

val generation : t -> int
(** Generation of the current upper levels (bumped by each pass 3). *)

val set_generation : t -> ?txn:Transact.Txn.t -> int -> unit

val page : t -> int -> Pager.Page.t
(** Frame bytes via the pool. *)

val height : t -> int
(** 1 when the root is a leaf. *)

(** {2 Descent} *)

val descend_path : t -> int -> int list
(** Page ids from the root down to the leaf covering the key.  Raises
    {!Not_a_node} at a page that is neither a leaf nor internal. *)

val find_leaf : t -> int -> int
val parent_of_leaf : t -> int -> int option
(** Base page covering the key ([None] when the root is a leaf). *)

val first_leaf : t -> int
val first_base : t -> int option

val next_base : t -> int -> int option
(** [next_base t k] — Get_Next(k) from §7.1: the base page with the smallest
    low mark strictly greater than [k]. *)

(** {2 Record operations (unlocked primitives)} *)

val search : t -> int -> string option

val insert :
  t ->
  txn:Transact.Txn.t ->
  ?on_base_edit:(Wal.Record.side_op -> unit) ->
  key:int ->
  payload:string ->
  unit ->
  unit
(** Raises {!Duplicate_key} / {!Record_too_large}.  [on_base_edit] fires for
    every entry inserted into or deleted from a {e base page} (level-1 node)
    — the changes §7 must mirror into the side file while pass 3 runs. *)

val delete :
  t ->
  txn:Transact.Txn.t ->
  ?on_base_edit:(Wal.Record.side_op -> unit) ->
  int ->
  string option
(** Free-at-empty: an emptied leaf is unlinked, its parent entry removed, and
    the page deallocated; empties propagate up. *)

val update :
  t ->
  txn:Transact.Txn.t ->
  ?on_base_edit:(Wal.Record.side_op -> unit) ->
  key:int ->
  payload:string ->
  unit ->
  string option
(** Replace the payload of an existing key (logged as delete + insert, so
    rollback restores the old payload).  Returns the previous payload, or
    [None] when the key is absent (nothing is inserted then). *)

val apply_insert : t -> key:int -> payload:string -> unit
(** Unlogged, idempotent record insert (structure changes still logged
    physically) — used by CLR-driven rollback and recovery redo. *)

val apply_delete : t -> int -> unit
(** Unlogged, idempotent record delete. *)

val insert_base_entry : t -> ?txn:Transact.Txn.t -> key:int -> child:int -> unit -> unit
(** Insert an entry into the base page covering [key], splitting internal
    nodes upward as needed — how side-file entries are caught up onto the
    new tree (§7).  No-op if the key is already present. *)

val delete_base_entry : t -> ?txn:Transact.Txn.t -> int -> unit
(** Remove the base-page entry with exactly this key (no-op when absent),
    freeing emptied internal pages. *)

val range : t -> lo:int -> hi:int -> Leaf.record list
(** Records with [lo <= key <= hi], via leaf side pointers. *)

val iter_leaves : t -> (int -> Pager.Page.t -> unit) -> unit
(** In key order over the side-pointer chain. *)

val leaf_pids : t -> int list

type stats = {
  height : int;
  leaf_count : int;
  internal_count : int;
  record_count : int;
  avg_leaf_fill : float;
  min_leaf_fill : float;
}

val stats : t -> stats
