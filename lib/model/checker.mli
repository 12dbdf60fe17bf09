(** The conformance checker: one {!Machine.t} per protocol model, fed from
    each attached store's event stream (lock decisions, the reorganizer's
    protocol steps, optimistic reads) and the cross-shard coordinator's
    hook.  Attach it to a running engine (or a replay)
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

val attach : t -> shard:int -> Shard.Store.t -> unit
(** Subscribe to the store's bus: lock decisions go to the Table-1 model
    (tracks ["s<shard>/<resource>"]), the reorganizer's protocol steps to the
    unit lifecycle, actor and switch models, and every committed optimistic
    read to the olc model, judged against a fresh {!Btree.Tree.search} of
    the store's tree taken in the same atomic step. *)

val feed : t -> shard:int -> Obs.Bus.event -> unit
(** Check one lock or protocol event directly (synthetic streams): unit
    events go to the lifecycle, actor and switch models, the other protocol
    steps to the switch model.  Any other event is ignored. *)

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
