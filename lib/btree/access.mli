(** User-transaction access protocols (paper §4.1.2–4.1.3).

    These are the reader and updater protocols that coexist with the
    reorganizer:

    {b Reader}: by default optimistic — see {!set_olc}; the locked protocol
    below is its fallback and the paper's reader.  IS on the tree lock, S
    lock-coupling down the tree.  If the S
    request on a {e leaf} conflicts with the reorganizer's RX, the reader
    releases its base-page S lock and its request, issues an unconditional
    instant-duration RS on the base page (which is incompatible with R, so it
    returns exactly when the reorganizer finishes that unit), then re-locks
    the base page and retries from there — the keys it is after may have
    moved to a different leaf of the same parent.

    {b Updater}: IX on the tree lock, S coupling to the parent, X on the
    leaf, same RX give-up rule.  If the operation needs a structural change
    (split, or free-at-empty consolidation), all locks are released and the
    descent restarts with X lock-coupling, releasing ancestors above
    Bayer–Schkolnick safe nodes; the X on a base page is what makes updaters
    wait out the reorganizer's short MODIFY phase.  After a base-page change,
    the updater tests the reorganization bit and runs the §7.2 side-file
    logic installed with {!set_on_base_update}.

    All calls must run inside a {!Sched.Engine} process; they may raise
    {!Transact.Lock_client.Deadlock_victim}, which callers handle by aborting
    the transaction.  Locks are held to end of transaction
    ([Txn_mgr.commit/abort/finish_read_only] releases them). *)

type t

val olc_default : bool
(** Whether a new handle reads optimistically ([true]); the one source of
    [Reorg.Config.default.olc]. *)

val create : tree:Tree.t -> mgr:Transact.Txn_mgr.t -> ?record_locking:bool -> unit -> t
(** Reads start as {!olc_default} says ({!set_olc}).  With [record_locking]
    (off by default), readers take IS on the leaf page
    plus S on the record key, and updaters take IX plus X on the key —
    §4.1.2's "readers and updaters may request or hold intention locks (IX or
    IS) (on leaf pages only) if they are doing record-level locking".  Two
    updaters then coexist on one leaf; the RX give-up rule is unchanged
    because RX conflicts with IS and IX too (Table 1). *)

val tree : t -> Tree.t
val mgr : t -> Transact.Txn_mgr.t
val locks : t -> Lockmgr.Lock_mgr.t

val set_on_base_update : t -> (Transact.Txn.t -> Wal.Record.side_op -> unit) -> unit
(** Installed by pass 3; called after every base-page entry change made by an
    updater while the reorganization bit is set. *)

val clear_on_base_update : t -> unit

val set_side_undo : t -> (Wal.Record.side_op -> unit) -> unit
(** Installed by pass 3 alongside the base-update hook: how to remove a
    side-file entry when the transaction that appended it rolls back. *)

val run_side_undo : t -> Wal.Record.side_op -> unit
(** Dispatch a side-file CLR action to the installed hook (no-op if none). *)

val bus : t -> Obs.Bus.t
(** The store's event stream (the lock manager's). *)

val set_olc : t -> bool -> unit
(** Enable/disable the optimistic read path (DESIGN.md §11; on from
    {!create}, as in [Reorg.Config.default]): point lookups and range scans
    descend lock-free, validating {!Olc} per-node versions across scheduler
    yields, and yield exactly where the locked protocol does.  At each leaf
    they probe whether IS on the tree and S on the leaf would be granted
    ({!Lockmgr.Lock_mgr.probe} — never enqueues); a refused probe (a held
    RX or X) sends the read to the locked Table-1 protocol at once.  On a
    validation conflict, an active reorganization unit, or a crash-advanced
    epoch, the reader retries up to 3 times, then falls back to the locked
    protocol.  Writers and the reorganizer are unaffected.  Ignored (locked path used) when the access layer does
    record-level locking — record S locks are the point there. *)

val olc_enabled : t -> bool

val topic : Obs.Bus.topic

type Obs.Bus.event +=
  | Olc_read of { leaf : int; key : int; result : string option }
      (** A {e committed} optimistic point read, emitted under {!topic} in
          the same atomic scheduler step as the read itself.  The
          conformance checker judges [result] against a fresh root-to-leaf
          descent taken in its handler; the {!Olc.test_skip_bumps} mutation
          makes that verdict fail. *)

val read : t -> txn:Transact.Txn.t -> int -> string option

val range_read : t -> txn:Transact.Txn.t -> lo:int -> hi:int -> Leaf.record list
(** Walks the side-pointer chain optimistically (or S-locks each leaf in
    turn when {!set_olc} is off). *)

val insert : t -> txn:Transact.Txn.t -> key:int -> payload:string -> unit

val delete : t -> txn:Transact.Txn.t -> int -> string option

val update : t -> txn:Transact.Txn.t -> key:int -> payload:string -> string option
(** Replace an existing record's payload under the updater protocol;
    returns the old payload ([None] = key absent, nothing written). *)
