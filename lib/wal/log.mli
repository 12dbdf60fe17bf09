(** Append-only write-ahead log with a stable / volatile boundary.

    Records appended with {!append} sit in the volatile tail until {!force}d
    (or until a page flush forces them through the buffer pool's WAL hook).
    {!crash} discards the volatile tail — that, together with
    {!Pager.Buffer_pool.crash}, is the whole failure model.

    The log also keeps byte accounting ({!stats}): the paper treats log volume
    as a first-class cost of reorganization ("since log size is a concern, we
    try to make the amount of information logged small"). *)

type t

type stats = {
  records : int;  (** records appended (stable + volatile) *)
  bytes : int;  (** encoded bytes appended *)
  forced : int;  (** number of force operations actually advancing the boundary *)
}

val create : ?bus:Obs.Bus.t -> unit -> t
(** [bus] is the store's event stream (default: a fresh one of its own). *)

val append : t -> Record.body -> Lsn.t
(** Append and return the record's LSN (LSNs start at 1). *)

val force : t -> Lsn.t -> unit
(** Make records up to and including the LSN durable.  No-op if already
    durable.  When a fault controller is attached ({!set_fault}), an
    advancing force consults it: a crash-on-force plan makes this call raise
    {!Pager.Fault.Crash} after committing either all pending records or (for
    a torn-tail plan) only a random prefix of them. *)

val set_fault : t -> Pager.Fault.t -> unit
(** Route this log's durability boundary through a fault controller. *)

val force_all : t -> unit

val flushed_lsn : t -> Lsn.t
val head_lsn : t -> Lsn.t
(** LSN of the most recently appended record ([Lsn.nil] when empty). *)

val read : t -> Lsn.t -> Record.body
(** Raises [Not_found] for out-of-range or discarded LSNs. *)

val record_size : t -> Lsn.t -> int
(** Encoded size of the record at an LSN, as {!append} measured it and
    {!stats} counted it.  Raises [Not_found] like {!read}. *)

val iter : ?from:Lsn.t -> ?upto:Lsn.t -> t -> (Lsn.t -> Record.body -> unit) -> unit
(** In-LSN-order iteration over the {e stable} records in
    [[from, upto]] (defaults: the whole stable log). *)

val crash : t -> unit
(** Discard the volatile tail.  Subsequent appends continue the LSN
    sequence. *)

val truncate : t -> keep_from:Lsn.t -> unit
(** Reclaim stable entries below [keep_from] and advance the log's base —
    the checkpoint protocol calls this once replay is guaranteed to start at
    or after [keep_from].  Clamped so the base never regresses and the
    volatile tail is never touched.  {!read} of a reclaimed LSN raises
    [Not_found]; {!iter} skips reclaimed prefixes.  {!stats} counters
    (appended log volume) are unaffected. *)

val base_lsn : t -> Lsn.t
(** Highest reclaimed LSN (0 when nothing was truncated): records with
    LSN <= [base_lsn] are gone. *)

val truncated_records : t -> int
(** Total records reclaimed by {!truncate} over this log's lifetime. *)

val last_checkpoint : t -> (Lsn.t * Record.body) option
(** Most recent stable [Checkpoint] record, tracked incrementally. *)

val stats : t -> stats
val reset_stats : t -> unit
(** Zeroes the counters in {!stats} (the records themselves are kept).  A
    later {!crash} only subtracts volatile entries appended {e after} the
    reset, so the gauges cannot go negative. *)

(** {2 Observability} *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register [wal.records], [wal.bytes], [wal.forced] and
    [wal.flushed_lsn] gauges. *)

val topic : Obs.Bus.topic

type Obs.Bus.event +=
  | Forced of { from : Lsn.t; upto : Lsn.t }
      (** a force advanced the stable boundary from [from] to [upto] *)
  | Truncated of { base : int; records : int }
      (** {!truncate} reclaimed [records] entries; [base] is the new head *)
(** Emitted on the log's bus under {!topic}. *)
