(** Transaction manager: begin / commit / abort with logical undo.

    Rollback walks the transaction's log chain backwards.  Record-level
    changes ([Leaf_insert] / [Leaf_delete] / [Side_file]) are undone
    {e logically} through the handler installed with {!set_logical_undo}
    (wired to the B+-tree by the database assembly — logical undo re-descends
    the tree, so rollback stays correct even after the reorganizer has moved
    the records).  Physical [Update] records are structural and redo-only;
    undo skips them.  Every undo step logs a [Clr] whose [undo_next] makes
    rollback idempotent across crashes. *)

type t

val create : ?first_id:int -> ?id_stride:int -> Journal.t -> Lockmgr.Lock_mgr.t -> t
(** [first_id] / [id_stride] (defaults 1 / 1) put every owner id this manager
    mints on the lattice [first_id + k * id_stride].  Shard [i] of [n] uses
    [~first_id:(i + 1) ~id_stride:n], making owner ids globally disjoint
    across shards: each shard owns one residue class mod [n]. *)

val journal : t -> Journal.t
val lock_mgr : t -> Lockmgr.Lock_mgr.t

val fresh_owner : t -> Txn.t
(** An actor handle with a unique id but no Txn_begin record — used for the
    reorganization process and for read-only actors. *)

val begin_txn : t -> Txn.t
(** Logs [Txn_begin] and registers the transaction as active. *)

val adopt : t -> Txn.t -> unit
(** Log [Txn_begin] for a caller-made handle and register it active — the
    lazy upgrade of a cross-shard transaction's read-only presence in a
    shard to a writing one (the handle already holds locks under its id).
    Raises [Invalid_argument] if the id is already active here. *)

val commit : t -> Txn.t -> unit
(** Log [Txn_commit], make it durable through the journal's
    {!Journal.commit_force} seam (a synchronous force by default, group
    commit when the async pipeline is attached), release all locks. *)

val abort : t -> Txn.t -> unit
(** Undo (logging CLRs), log [Txn_abort], release all locks. *)

val finish_read_only : t -> Txn.t -> unit
(** Release locks of an actor that logged nothing. *)

val set_logical_undo : t -> (Txn.t -> Wal.Record.clr_action -> unit) -> unit

val active_txns : t -> (int * Wal.Lsn.t) list
(** For checkpointing. *)

val oldest_begin_lsn : t -> Wal.Lsn.t option
(** Oldest [Txn_begin] LSN among active transactions (a WAL-truncation
    floor), [None] when no active transaction has logged one. *)

val ensure_next_id : t -> int -> unit
(** Make sure future owner ids are at least this (restart runs this with the
    max id seen in the log, so recovered and new actors never collide).  The
    bound is rounded up onto this manager's [first_id]/[id_stride] lattice,
    preserving cross-shard disjointness. *)

val clear_active : t -> unit
(** Forget all in-memory transaction state (crash simulation). *)

val active_count : t -> int

val undo_chain : t -> Txn.t -> last:Wal.Lsn.t -> unit
(** Core undo walk from [last] (exposed for restart undo of loser
    transactions, which have no in-memory state). *)
