(** Restart: ARIES-style analysis / redo / undo, plus the paper's
    {e forward recovery} (§5.1) for reorganization work.

    After a crash the ordinary discipline applies to user transactions —
    redo everything stable, roll back losers — but the reorganizer's work is
    {e never} rolled back:

    - an incomplete reorganization {e unit} is {b finished}: the unit's BEGIN
      record says which pages and which kind of unit; the stable MOVEs (plus
      careful writing, which guarantees an unflushed source page still holds
      its records) and the recovered pages give back the rest of its step
      list, which {!Unit_exec.finish} runs from the first step whose record
      is not stable through to END — backwards, as a no-op, when the stable
      log ends inside the unit's own §5.2 give-up;
    - an interrupted pass 3 resumes from the most recent stable key: the
      durable new-generation level-1 pages below the stable key are adopted,
      later ones deallocated, surviving side-file entries behind the stable
      key reloaded, and the scan continues — not restarted (§7.3);
    - a completed switch is finished idempotently (old upper levels swept by
      generation, reorganization bit cleared).

    {!restart} performs all of the above and reports what a relaunched
    reorganization process should do next. *)

type resume =
  | No_reorg  (** no reorganization was in flight *)
  | Resume_passes of { lk : int }
      (** leaf passes were running; restart pass 1 from LK *)
  | Resume_pass3 of { stable_key : int; closed : (int * int) list }
      (** pass 3 was scanning; resume with {!Pass3.run} [?resume] *)
  | Finish_switch of { new_root : int }
      (** the new tree was fully built (final stable point logged) but the
          switch had not committed; rebuild catch-up state and switch *)

type outcome = {
  resume : resume;
  finished_unit : int option;  (** unit completed by forward recovery *)
  units_finished : int;  (** BEGIN-without-END units finished forward *)
  losers_undone : int;
  redo_applied : int;  (** log records whose redo changed a page *)
  torn_pages : int;  (** torn pages detected (and repaired by redo) *)
  side_entries : Wal.Record.side_op list;  (** surviving side file, oldest first *)
}

val restart :
  ?registry:Obs.Registry.t ->
  ?shard:int * int ->
  access:Btree.Access.t ->
  config:Config.t ->
  unit ->
  Ctx.t * outcome
(** Run full restart over the (crashed) components behind [access]; each
    shard of a sharded assembly restarts independently with its own
    [shard:(i, n)] (threaded to {!Ctx.make} for the unit-id lattice; the
    txn-id bound derived from the log is rounded onto the shard's lattice
    by {!Transact.Txn_mgr.ensure_next_id}).  Returns
    a fresh reorganizer context whose system table reflects the recovered
    state (LK, CK), plus the outcome.  Runs with the buffer pool in
    read-repair mode, so checksum-detected torn pages are rebuilt by redo
    instead of raising.  When [registry] is given, bumps the
    [recovery.restarts], [recovery.units_finished] and [recovery.torn_pages]
    counters.  Ends with a flush + checkpoint, so a subsequent crash recovers
    from here. *)

val resume_reorganization : Ctx.t -> outcome -> Driver.report option
(** Relaunch the reorganization where {!restart} said to (must run inside a
    scheduler process).  Returns [None] when there was nothing to resume. *)
