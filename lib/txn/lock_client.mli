(** Blocking lock acquisition for cooperative processes.

    Wraps the scheduler-agnostic {!Lockmgr.Lock_mgr} into calls that park the
    calling process until granted.  Blocked time (in scheduler ticks) is
    charged to the requesting {!Txn.t}, which is how the concurrency
    experiments measure user-transaction delay. *)

exception Deadlock_victim
(** Raised out of a blocking call when the lock manager chose this owner as
    the deadlock victim. *)

val topic : Obs.Bus.topic

type Obs.Bus.event +=
  | Waited of { txn : int; res : Lockmgr.Resource.t; mode : Lockmgr.Mode.t; instant : bool;
      started : int; ticks : int; outcome : Lockmgr.Lock_mgr.grant }
      (** A blocking request (an instant-duration one if [instant]) waited
          from tick [started] for [ticks]; emitted on the lock manager's bus
          under {!topic}. *)

val acquire : Lockmgr.Lock_mgr.t -> txn:Txn.t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
(** Acquire, blocking if necessary.  Raises {!Deadlock_victim}. *)

val try_acquire :
  Lockmgr.Lock_mgr.t -> txn:Txn.t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> Lockmgr.Lock_mgr.outcome
(** Non-blocking; conflict information lets protocols inspect the blocker's
    mode (the RX give-up rule needs this). *)

val wait_queued : Lockmgr.Lock_mgr.t -> txn:Txn.t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
(** Queue behind the conflict just observed and block until granted (the
    ordinary "wait for the lock" path after a [`Conflict]). *)

val instant : Lockmgr.Lock_mgr.t -> txn:Txn.t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
(** Unconditional instant-duration request (the paper's RS, and the instant
    IX on the side file during switch): block until the mode is grantable,
    then return {e without} holding the lock. *)

val release : Lockmgr.Lock_mgr.t -> txn:Txn.t -> Lockmgr.Resource.t -> Lockmgr.Mode.t -> unit
val release_all : Lockmgr.Lock_mgr.t -> txn:Txn.t -> unit
