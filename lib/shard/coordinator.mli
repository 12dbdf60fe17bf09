(** Cross-shard transactions under two-phase locking.

    One coordinator owns the shard map and the per-shard stores.  A
    cross-shard transaction is {e one} identity — a single globally unique
    id minted from shard 0's strided transaction manager — that acquires
    locks in each touched shard's own lock manager through a per-shard
    {!Transact.Txn.t} handle sharing that id.  Presence in a shard starts
    read-only (locks only); the first write in a shard lazily logs a
    [Txn_begin] there ({!Transact.Txn_mgr.adopt}), so every shard's WAL
    independently knows whether the transaction wrote locally.

    {b Commit protocol}: commit records are written and forced to every
    {e written} shard's WAL in ascending shard order; the transaction is
    acknowledged only after the last force.  Each shard recovers
    independently ([Reorg.Recovery.restart] per store): a shard whose WAL
    holds the commit record keeps the transaction's effects, one without it
    undoes them as a loser.  Because commit is in shard order, the committed
    shards after a crash always form a prefix — and an {e acked}
    transaction has the record in every shard, so acked transactions are
    all-or-nothing across the whole assembly.  Unacked transactions may
    commit in a prefix of their shards; the client was never told they
    committed.

    {b Deadlocks}: creating a coordinator points every shard's lock manager
    at the other shards' waits-for edges ({!Lockmgr.Lock_mgr.set_extra_edges}),
    so a cycle spanning shards is caught by the local detector of whichever
    shard enqueues the closing wait, exactly as a same-shard cycle would
    be.  Victims raise {!Transact.Lock_client.Deadlock_victim} out of the
    blocked operation; callers abort with {!abort}. *)

type t

type xtxn
(** One cross-shard transaction. *)

val create : map:Shard_map.t -> stores:Store.t array -> t
(** [stores.(i)] must be shard [i]'s store, assembled with
    [~shard:(i, Array.length stores)] (checked).  Installs the cross-shard
    deadlock edges on every store's lock manager. *)

val map : t -> Shard_map.t
val stores : t -> Store.t array
val store : t -> int -> Store.t

val begin_x : t -> xtxn
(** Mint a fresh global id and start a transaction.  Must (like every
    operation on the transaction) run inside a scheduler process. *)

val txn_in : xtxn -> int -> Transact.Txn.t
(** The transaction's handle in shard [i], created on first use (read-only:
    no log record).  Locks taken through it belong to the global id. *)

val write_txn_in : xtxn -> int -> Transact.Txn.t
(** Like {!txn_in} but upgraded for writing: the first call per shard logs
    [Txn_begin] in that shard's WAL. *)

val touched : xtxn -> int list
(** Shard indices the transaction has touched so far, ascending. *)

val commit : t -> xtxn -> unit
(** Write + force the commit record in every written shard in ascending
    shard order, then release all locks everywhere.  Raises
    [Invalid_argument] if the transaction is no longer active. *)

val abort : t -> xtxn -> unit
(** Undo in every written shard (logging CLRs and [Txn_abort] per shard),
    release all locks everywhere. *)

val blocked_ticks : xtxn -> int
(** Lock-wait ticks summed over the transaction's per-shard handles. *)

val give_ups : xtxn -> int
(** RX give-up retries summed over the per-shard handles. *)

(** {2 Observability} *)

type stats = {
  begun : int;
  committed : int;
  aborted : int;
  cross_shard_commits : int;  (** committed transactions that wrote >= 2 shards *)
  commit_records : int;  (** per-shard commit records written *)
}

val stats : t -> stats

(** {2 Protocol events}

    The commit-protocol steps, in decision order, for the model checker: a
    transaction's per-shard commit records must land in strictly ascending
    shard order and its ack must follow the last record — the ordering that
    makes acked cross-shard transactions all-or-nothing under any crash. *)

type event =
  | Ev_begun of { x_id : int }
  | Ev_commit_record of { x_id : int; shard : int }
      (** shard [shard]'s commit record appended and forced *)
  | Ev_acked of { x_id : int }  (** commit returned to the client *)
  | Ev_aborted of { x_id : int }

val set_event_hook : t -> (event -> unit) option -> unit
