(** The conformance checker: one {!Machine.t} per protocol model, fed from
    the typed event hooks of the lock manager, the reorganization context and
    the cross-shard coordinator.  Attach it to a running engine (or a replay)
    and it judges every protocol decision online; [finalize] at the end flags
    units/switches/transactions left in a non-accepting state. *)

type t

val create : ?max_violations:int -> unit -> t
(** Violations beyond [max_violations] (default 20) are dropped — one broken
    guard in a hot loop should not OOM the report. *)

val cycle : t -> string -> unit
(** Start a new scenario phase: resets all machines (fresh engine state) and
    prefixes subsequent violations with the label.  Collected violations are
    kept. *)

val crash : t -> unit
(** Simulated crash: drop all tracks (volatile protocol state is gone); the
    post-restart execution re-announces live state via recovery events. *)

val attach_locks : t -> shard:int -> Lockmgr.Lock_mgr.t -> unit
(** Route the lock manager's event stream into the Table-1 model, tracks
    keyed ["s<shard>/<resource>"]. *)

val lock_hook : t -> shard:int -> Lockmgr.Lock_mgr.event -> unit

val prot_hook : t -> shard:int -> Reorg.Prot.event -> unit
(** The sink to pass as [Ctx.make ~prot]: routes unit events to the
    lifecycle/actor machines, [Olc_read] to the shard's optimistic-read
    machine, and everything else to the shard's switch machine. *)

val attach_coordinator : t -> Shard.Coordinator.t -> unit

val finalize : t -> unit

val events : t -> int
val tracks : t -> int
(** Machine instances created since {!create}, across every {!cycle} and
    {!crash} (which drop the live ones). *)

val violations : t -> Machine.violation list
val ok : t -> bool
val first_violation : t -> Machine.violation option

val report : t -> string
(** One-line summary when clean; the rendered violations otherwise. *)
