module Engine = Sched.Engine
module Journal = Transact.Journal
module Buffer_pool = Pager.Buffer_pool
module Group_commit = Wal.Group_commit

type t = {
  gc : Group_commit.t;
  db : Db.t;
  mutable detached : bool;
}

(* Reroute transaction-commit durability through the group-commit batcher:
   the committing process parks until the ticker's next window folds its
   force into one stable append.  A force already covered by the flushed
   prefix returns immediately — no parking, no batch entry.  Careful-writing
   prerequisite forces ([Buffer_pool]'s WAL-rule hook) never come through
   this seam; they stay synchronous. *)
let commit_hook gc log lsn =
  if lsn > Wal.Log.flushed_lsn log then
    Engine.suspend (fun wake -> Group_commit.request gc lsn wake)

let attach ?(gc_every = 2) ?(flush_every = 8) ?flush_limit ?ckpt_every ?ctx eng db ~stop =
  let gc = Group_commit.create db.Db.log in
  Journal.set_commit_force db.Db.journal (commit_hook gc db.Db.log);
  (* The ticker outlives [stop] until its batch is drained: a process parked
     in the current window must be woken (or the crash must take it) before
     the daemon leaves — group commit never strands an acknowledgement. *)
  Engine.spawn eng ~name:"group-commit" (fun () ->
      let rec loop () =
        Engine.sleep gc_every;
        Group_commit.flush gc;
        if not (stop () && Group_commit.pending gc = 0) then loop ()
      in
      loop ());
  (* Elevator writeback: drain dirty frames in ascending-pid order so the
     write stream the disk sees turns sequential; one batched log force
     (inside [flush_elevator]) satisfies the WAL rule for the whole sweep. *)
  Sched.Daemon.spawn eng ~name:"flusher" ~every:flush_every ~until:stop (fun () ->
      ignore (Buffer_pool.flush_elevator ?limit:flush_limit db.Db.pool : int));
  (* Fuzzy checkpoints bound recovery replay and let the log truncate. *)
  (match ckpt_every with
  | None -> ()
  | Some every -> Checkpointer.spawn ?ctx eng ~db ~every ~stop);
  { gc; db; detached = false }

let detach t =
  if not t.detached then begin
    t.detached <- true;
    (* Waiters still parked here were abandoned by a crash inside the last
       window — exactly what the crash does to their processes.  Restore the
       synchronous path for code that commits outside any engine. *)
    Journal.reset_commit_force t.db.Db.journal
  end

let stats t = Group_commit.stats t.gc
