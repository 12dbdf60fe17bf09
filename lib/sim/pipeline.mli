(** The asynchronous durability pipeline: group commit, elevator writeback
    and fuzzy checkpointing as background daemons on one scheduler engine.

    Attached to a database, it reroutes transaction-commit forces through a
    {!Wal.Group_commit} batcher (one stable append per scheduler window
    covers every commit that arrived in it), drains the buffer pool's dirty
    frames in ascending-page-id elevator sweeps (shifting the disk's write
    stream from random to sequential), and periodically checkpoints so the
    WAL truncates.  Careful-writing prerequisite forces are untouched: the
    WAL rule stays synchronous. *)

type t

val attach :
  ?gc_every:int ->
  ?flush_every:int ->
  ?flush_limit:int ->
  ?ckpt_every:int ->
  ?ctx:Reorg.Ctx.t ->
  Sched.Engine.t ->
  Db.t ->
  stop:(unit -> bool) ->
  t
(** Install the commit-force hook on [db]'s journal and spawn the daemons on
    [eng].  [gc_every] (default 2) is the group-commit window in scheduler
    ticks, [flush_every] (default 8) the elevator period, [flush_limit] the
    per-sweep page cap (default: all dirty pages), [ckpt_every] (default:
    none) the fuzzy-checkpoint period — through [ctx] when given, so the §5
    system table rides along and reorg-aware truncation floors apply.  The
    daemons exit once [stop ()] holds and no commit waiter is pending; the
    group-commit ticker always drains its last batch first.

    The hook MUST be uninstalled ({!detach}) before anything commits outside
    the engine — suspending without a scheduler is an error. *)

val detach : t -> unit
(** Restore the synchronous commit-force path.  Idempotent.  Waiters still
    parked (a crash inside the window killed the engine) are abandoned,
    which is correct: their commits were never acknowledged. *)

val stats : t -> Wal.Group_commit.stats
