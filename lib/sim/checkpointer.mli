(** Background checkpointer: periodically writes a checkpoint record
    carrying the active-transaction table and — when a reorganization is
    running — the §5 system table, so restart analysis can pick up from the
    most recent checkpoint rather than the log's beginning. *)

val spawn : ctx:Reorg.Ctx.t -> Sched.Engine.t -> every:int -> stop:(unit -> bool) -> unit
(** Spawns a process that checkpoints [ctx]'s store every [every] ticks
    until [stop ()] is true, through {!Reorg.Ctx.checkpoint}, so the
    reorganization table and its truncation floors are included. *)
