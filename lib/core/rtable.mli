(** The reorganizer's small in-memory system table (§5).

    It records, at any moment: LK — the largest key of the last finished
    reorganization unit (where to restart after a crash); the BEGIN LSN and
    most recent LSN of the in-flight unit (how to finish it with forward
    recovery); and CK — the low mark of the base page pass 3 is currently
    reading ([Get_Current]).  The table is copied into every checkpoint
    record, which is how it survives crashes. *)

type t

val create : ?first_id:int -> ?id_stride:int -> unit -> t
(** Unit ids start at [first_id] and advance by [id_stride] — parallel
    reorganizer workers use disjoint id lattices so their units never
    collide in the log. *)

val lk : t -> int
val set_lk : t -> int -> unit

val begin_unit : t -> unit_id:int -> begin_lsn:Wal.Lsn.t -> unit
val note_lsn : t -> Wal.Lsn.t -> unit
(** Record the most recent LSN of the in-flight unit; it becomes the
    [prev_lsn] of the unit's next record. *)

val last_lsn : t -> Wal.Lsn.t
val in_flight : t -> int option

val end_unit : t -> largest_key:int -> unit
(** Delete the unit's entry and advance LK. *)

val ck : t -> int option
(** Get_Current(): the low mark of the base page being read by pass 3;
    [None] when internal reorganization is not running. *)

val set_ck : t -> int option -> unit

(** {2 WAL-truncation floor}

    While pass 3 (catch-up and switch) is live, records as old as the
    [Stable_key] / surviving side-file entries must stay replayable, and a
    restarted pass 3 needs them even though no transaction or dirty page
    pins them.  The floor is the oldest such LSN; checkpoint-time truncation
    never reclaims at or above it.  It is volatile: restart re-derives it
    from the stable log ({!lower_floor}) before checkpointing. *)

val floor : t -> Wal.Lsn.t
(** [Wal.Lsn.nil] when no floor is pinned. *)

val lower_floor : t -> Wal.Lsn.t -> unit
(** Lower the floor to [lsn] if unset or higher; [nil] is ignored. *)

val clear_floor : t -> unit

val next_unit_id : t -> int
(** Monotonically increasing unit ids (survives via the image). *)

val image : t -> Wal.Record.reorg_table
(** Snapshot for a checkpoint record. *)

val restore : t -> Wal.Record.reorg_table -> unit
