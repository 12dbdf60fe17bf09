(** The side file (§7.2): an append-only system table of base-page changes
    made behind the pass-3 scan cursor.

    Updaters append through {!append}, which takes an IX lock on the table
    and an X lock on the entry key, and logs a [Side_file] record under the
    updater's transaction (so aborting the updater removes the entry via its
    CLR).  During the switch the reorganizer holds X on the table; an
    updater's IX then falls back to an unconditional instant-duration
    request, and [append] reports [`Redirect] — the caller must re-apply its
    change to the {e new} tree itself (§7.4).

    The reorganizer drains entries with {!take}, logging [Side_applied] as
    each is applied to the new tree. *)

type t

val create : journal:Transact.Journal.t -> locks:Lockmgr.Lock_mgr.t -> t
(** Events go out on the lock manager's bus: from each {!append} a
    [Side_accept] (with the new backlog) or [Side_redirect] with the
    affected key — the admission decision the switch protocol hinges on —
    and {!Prot.Side_backlog} after every take, undo-remove and
    recovery-restore. *)

val append : t -> txn:Transact.Txn.t -> Wal.Record.side_op -> [ `Accepted | `Redirect ]
(** May raise {!Transact.Lock_client.Deadlock_victim}. *)

val take : t -> Wal.Record.side_op option
(** Pop the oldest entry and log [Side_applied].  The caller applies it to
    the new tree before calling {!take} again. *)

val take_batch : t -> max:int -> Wal.Record.side_op list
(** Pop up to [max] oldest entries (oldest first), logging [Side_applied]
    for each — the batched catch-up path: one scheduler yield can cover a
    whole batch instead of interleaving after every entry. *)

val remove : t -> Wal.Record.side_op -> unit
(** Logical undo of an append (wired into the transaction manager). *)

val size : t -> int

val restore_entries : t -> Wal.Record.side_op list -> unit
(** Recovery: reload surviving entries (oldest first). *)

val entries : t -> Wal.Record.side_op list
