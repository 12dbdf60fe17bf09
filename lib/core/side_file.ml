module Record = Wal.Record
module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_client = Transact.Lock_client
module Journal = Transact.Journal

(* The entry store is a two-list deque: [back] accumulates appends (newest
   first), [front] holds entries ready to drain (oldest first).  Appends and
   (amortized) takes are O(1) — the old single newest-first list reversed
   itself on every [take], making pass-3 catch-up quadratic in the backlog. *)
type t = {
  journal : Journal.t;
  locks : Lockmgr.Lock_mgr.t;
  mutable front : Record.side_op list; (* oldest first *)
  mutable back : Record.side_op list; (* newest first *)
  mutable count : int;
}

let create ~journal ~locks = { journal; locks; front = []; back = []; count = 0 }

let emit t ev = Obs.Bus.emit (Lockmgr.Lock_mgr.bus t.locks) Prot.topic ev
let note t change = emit t (Prot.Side_backlog { size = t.count; change })

let key_of = function
  | Record.Side_insert { key; _ } | Record.Side_delete { key; _ } -> key

let append t ~txn op =
  match Lock_client.try_acquire t.locks ~txn Resource.Side_file Mode.IX with
  | `Granted ->
    Lock_client.acquire t.locks ~txn (Resource.Side_key (key_of op)) Mode.X;
    ignore
      (Journal.log_for t.journal ~txn (fun ~prev ->
           Record.Side_file { txn = txn.Transact.Txn.id; op; prev }));
    t.back <- op :: t.back;
    t.count <- t.count + 1;
    emit t (Prot.Side_accept { key = key_of op; backlog = t.count });
    `Accepted
  | `Conflict _ ->
    (* Switching is in progress: wait it out with an instant-duration IX,
       then redirect the update to the new tree (§7.4). *)
    Lock_client.instant t.locks ~txn Resource.Side_file Mode.IX;
    emit t (Prot.Side_redirect { key = key_of op });
    `Redirect

let pop_oldest t =
  (match t.front with
  | [] ->
    t.front <- List.rev t.back;
    t.back <- []
  | _ -> ());
  match t.front with
  | [] -> None
  | oldest :: rest ->
    t.front <- rest;
    t.count <- t.count - 1;
    note t Obs.Health.Take;
    ignore (Wal.Log.append (Journal.log t.journal) (Record.Side_applied { op = oldest }));
    Some oldest

let take t = pop_oldest t

let take_batch t ~max =
  let rec go n acc =
    if n = 0 then List.rev acc
    else match pop_oldest t with None -> List.rev acc | Some op -> go (n - 1) (op :: acc)
  in
  go (Stdlib.max 0 max) []

let remove t op =
  (* Logical undo removes the aborting transaction's {e latest} append:
     search newest-to-oldest, which means the back list first. *)
  let rec drop_first = function
    | [] -> None
    | x :: rest ->
      if x = op then Some rest
      else begin
        match drop_first rest with None -> None | Some rest' -> Some (x :: rest')
      end
  in
  (match drop_first t.back with
  | Some back' ->
    t.back <- back';
    t.count <- t.count - 1
  | None -> begin
    match drop_first (List.rev t.front) with
    | Some rev_front' ->
      t.front <- List.rev rev_front';
      t.count <- t.count - 1
    | None -> ()
  end);
  note t Obs.Health.Removed

let size t = t.count

let restore_entries t ops =
  t.front <- ops;
  t.back <- [];
  t.count <- List.length ops;
  note t Obs.Health.Restored

let entries t = t.front @ List.rev t.back
