(** Scheduled fault injection on the simulated machine's I/O path.

    A {!t} is a fault {e controller} shared by every component that sits on
    the I/O path: {!Disk} consults it on each page read, write and grow,
    and [Wal.Log.force] consults it on each log force.  Arming a
    {!plan} schedules a single simulated machine crash at a precise I/O
    boundary; once the plan trips, the controller is {e dead} and every
    subsequent I/O raises {!Crash} until the simulated reboot
    ([Db.crash_now] calls {!kill} then {!revive}).  This makes a crash one
    authoritative event observed identically by pager, log, and recovery,
    instead of three separately-maintained fictions.

    Controllers are deterministic: the torn-tail prefix length is drawn from
    a {!Util.Rng} seeded by the plan, so a (seed, crash point) pair replays
    byte-identically. *)

exception Crash
(** Raised at the I/O boundary where the armed plan trips, and by every I/O
    attempted after the machine has died. *)

type plan = {
  crash_after_writes : int option;
      (** Die when the [n]th page write (counted from {!arm}) is issued. *)
  torn_write : bool;
      (** If dying on a page write, apply only the atomic prefix (kind,
          checksum) and leave the old LSN and body — a torn sector write. *)
  crash_after_forces : int option;
      (** Die when the [n]th advancing log force (counted from {!arm}) is
          issued. *)
  torn_tail : bool;
      (** If dying on a log force, let only a random prefix of that force's
          records reach stable storage — a torn WAL tail.  Sound because the
          caller of the torn force never returns, so nothing covered by it
          was ever acknowledged. *)
  seed : int;  (** Seeds the rng used for torn-prefix lengths. *)
}

val no_faults : plan
(** All fields off; arming it never trips. *)

type t

val create : unit -> t

val arm : t -> plan -> unit
(** Install a plan and reset the per-plan write/force counters.  Cumulative
    statistics ({!crashes}, {!torn_writes}, {!torn_tails}) are preserved. *)

val disarm : t -> unit
val armed : t -> bool

val crashed : t -> bool
(** The machine is dead: a plan tripped, or {!kill} was called. *)

val kill : t -> unit
(** Declare the machine dead now (the [Db.crash_now] entry point).  Counts a
    crash unless already dead. *)

val revive : t -> unit
(** Simulated reboot: clear the dead flag and disarm any plan. *)

val check : t -> unit
(** Raise {!Crash} if dead.  {!Disk} calls this before a read or a grow,
    and after applying a write so the boundary that killed the machine
    itself raises. *)

val on_write : t -> [ `Full | `Torn ]
(** Account one page write.  Raises {!Crash} if already dead.  If this write
    trips the plan the controller becomes dead and the result says how much
    of the write the disk should apply; the disk applies it and then
    {!check} raises. *)

val on_force : t -> records:int -> int
(** Account one advancing log force covering [records] pending records.
    Returns how many of them become stable (= [records] unless this force
    trips a torn-tail plan).  Raises {!Crash} if already dead. *)

val crashes : t -> int
val torn_writes : t -> int
val torn_tails : t -> int

val register_obs : t -> Obs.Registry.t -> unit
(** Publish [fault.crashes], [fault.torn_writes], [fault.torn_tails] as
    gauges reading this controller's cumulative counters. *)
