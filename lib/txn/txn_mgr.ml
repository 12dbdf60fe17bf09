module Log = Wal.Log
module Record = Wal.Record

type t = {
  journal : Journal.t;
  locks : Lockmgr.Lock_mgr.t;
  first_id : int;
  id_stride : int;
  mutable next_id : int;
  active : (int, Txn.t) Hashtbl.t;
  mutable logical_undo : Txn.t -> Record.clr_action -> unit;
}

let create ?(first_id = 1) ?(id_stride = 1) journal locks =
  if id_stride < 1 then invalid_arg "Txn_mgr.create: id_stride must be >= 1";
  if first_id < 1 then invalid_arg "Txn_mgr.create: first_id must be >= 1";
  {
    journal;
    locks;
    first_id;
    id_stride;
    next_id = first_id;
    active = Hashtbl.create 16;
    logical_undo = (fun _ _ -> failwith "Txn_mgr: no logical undo handler installed");
  }

let journal t = t.journal
let lock_mgr t = t.locks

let fresh_owner t =
  let id = t.next_id in
  t.next_id <- id + t.id_stride;
  Txn.make id

let adopt t tx =
  if Hashtbl.mem t.active tx.Txn.id then invalid_arg "Txn_mgr.adopt: id already active";
  tx.Txn.last_lsn <- Log.append (Journal.log t.journal) (Record.Txn_begin tx.Txn.id);
  tx.Txn.begin_lsn <- tx.Txn.last_lsn;
  Hashtbl.replace t.active tx.Txn.id tx

let begin_txn t =
  let tx = fresh_owner t in
  adopt t tx;
  tx

let set_logical_undo t f = t.logical_undo <- f

let commit t tx =
  if not (Txn.is_active tx) then invalid_arg "Txn_mgr.commit: not active";
  let lsn = Log.append (Journal.log t.journal) (Record.Txn_commit tx.Txn.id) in
  (* From here to the force the transaction's fate is sealed in the log
     order: a checkpoint written inside this window must NOT list it as
     active (any durable checkpoint implies the lower-LSN commit record is
     durable too, and restart analysis would otherwise re-activate the
     transaction past its own commit and undo it as a loser). *)
  tx.Txn.committing <- true;
  (* Commit-time durability goes through the journal's commit_force seam so
     the async pipeline can park concurrent committers on the group-commit
     buffer; by default this is a plain synchronous Log.force. *)
  Journal.commit_force t.journal lsn;
  tx.Txn.state <- Txn.Committed;
  Hashtbl.remove t.active tx.Txn.id;
  Lockmgr.Lock_mgr.release_all t.locks ~owner:tx.Txn.id

(* Walk the undo chain from [last].  CLRs short-circuit via undo_next so a
   rollback interrupted by a crash never undoes twice; Nta_end records jump
   over complete (sealed) structural sequences, while unsealed Update
   records are reversed physically from their before-images. *)
let undo_chain t tx ~last =
  let log = Journal.log t.journal in
  let pool = Journal.pool t.journal in
  let rec go lsn =
    if lsn <> Wal.Lsn.nil then
      match Log.read log lsn with
      | Record.Leaf_insert { key; prev; _ } ->
        let action = Record.Undo_insert { key } in
        t.logical_undo tx action;
        tx.Txn.last_lsn <-
          Log.append log (Record.Clr { txn = tx.Txn.id; action; undo_next = prev });
        go prev
      | Record.Leaf_delete { key; payload; prev; _ } ->
        let action = Record.Undo_delete { key; payload } in
        t.logical_undo tx action;
        tx.Txn.last_lsn <-
          Log.append log (Record.Clr { txn = tx.Txn.id; action; undo_next = prev });
        go prev
      | Record.Side_file { op; prev; _ } ->
        let action = Record.Undo_side op in
        t.logical_undo tx action;
        tx.Txn.last_lsn <-
          Log.append log (Record.Clr { txn = tx.Txn.id; action; undo_next = prev });
        go prev
      | Record.Update { page; off; before; prev; _ } ->
        (* Unsealed structural change (no Nta_end was reached first):
           restore the before-image. *)
        let action = Record.Undo_phys { page; off; bytes = before } in
        let clr =
          Wal.Log.append log (Record.Clr { txn = tx.Txn.id; action; undo_next = prev })
        in
        let p = Pager.Buffer_pool.get pool page in
        Bytes.blit_string before 0 p off (String.length before);
        Pager.Page.set_lsn p (Wal.Lsn.to_int64 clr);
        Pager.Buffer_pool.mark_dirty pool page;
        tx.Txn.last_lsn <- clr;
        go prev
      | Record.Nta_end { undo_next; _ } ->
        (* Sealed structural sequence: keep it, skip over it. *)
        go undo_next
      | Record.Clr { undo_next; _ } -> go undo_next
      | Record.Txn_begin _ -> ()
      | _ -> ()
  in
  go last

let abort t tx =
  if not (Txn.is_active tx) then invalid_arg "Txn_mgr.abort: not active";
  undo_chain t tx ~last:tx.Txn.last_lsn;
  ignore (Log.append (Journal.log t.journal) (Record.Txn_abort tx.Txn.id));
  tx.Txn.state <- Txn.Aborted;
  Hashtbl.remove t.active tx.Txn.id;
  Lockmgr.Lock_mgr.release_all t.locks ~owner:tx.Txn.id

let finish_read_only t tx = Lockmgr.Lock_mgr.release_all t.locks ~owner:tx.Txn.id

(* Transactions parked between their commit-record append and the group
   commit's force are excluded: their commit already precedes any checkpoint
   taken now, so listing them as active would make restart analysis undo a
   (possibly acknowledged) commit. *)
let active_txns t =
  Hashtbl.fold
    (fun id tx acc -> if tx.Txn.committing then acc else (id, tx.Txn.last_lsn) :: acc)
    t.active []

(* Oldest Txn_begin among the active set — the floor below which the WAL may
   not be truncated while these transactions might still need to roll back.
   Committing transactions need no undo once their commit record is durable
   (which any checkpoint taken now forces), and their redo records are
   pinned by the dirty frames' recovery LSNs. *)
let oldest_begin_lsn t =
  Hashtbl.fold
    (fun _ tx acc ->
      if tx.Txn.begin_lsn = Wal.Lsn.nil || tx.Txn.committing then acc
      else
        match acc with
        | None -> Some tx.Txn.begin_lsn
        | Some b -> Some (min b tx.Txn.begin_lsn))
    t.active None

(* Round [n] up onto this manager's id lattice (first_id + k*id_stride) so
   recovery advancing past ids seen in the log — which may belong to other
   shards' lattices — never knocks this shard off its own residue class. *)
let ensure_next_id t n =
  if n > t.next_id then begin
    let k = (n - t.first_id + t.id_stride - 1) / t.id_stride in
    t.next_id <- t.first_id + (t.id_stride * max 0 k)
  end

let clear_active t = Hashtbl.reset t.active

let active_count t = Hashtbl.length t.active
