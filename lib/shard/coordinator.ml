module Txn = Transact.Txn
module Txn_mgr = Transact.Txn_mgr
module Lock_mgr = Lockmgr.Lock_mgr

(* Typed protocol events for the model checker: the commit-protocol steps
   whose ordering (ascending shard order, ack strictly after the last
   record) is what makes acked cross-shard transactions all-or-nothing. *)
type event =
  | Ev_begun of { x_id : int }
  | Ev_commit_record of { x_id : int; shard : int }
  | Ev_acked of { x_id : int }
  | Ev_aborted of { x_id : int }

type t = {
  map : Shard_map.t;
  stores : Store.t array;
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable cross_shard_commits : int;
  mutable commit_records : int;
  mutable event_hook : (event -> unit) option;
}

(* Per-shard presence of one cross-shard transaction: the handle exists as
   soon as the shard is touched; [logged] flips when the first write logs
   Txn_begin there. *)
type slot = { tx : Txn.t; mutable logged : bool }

type xtxn = {
  coord : t;
  x_id : int;
  slots : slot option array;
  mutable x_state : [ `Active | `Committed | `Aborted ];
}

let create ~map ~stores =
  let n = Array.length stores in
  if n = 0 then invalid_arg "Coordinator.create: no stores";
  if Shard_map.shards map <> n then
    invalid_arg "Coordinator.create: shard map and store count disagree";
  Array.iteri
    (fun i (st : Store.t) ->
      if st.Store.shard <> (i, n) then
        invalid_arg
          (Printf.sprintf "Coordinator.create: stores.(%d) was assembled as shard (%d, %d)" i
             (fst st.Store.shard) (snd st.Store.shard)))
    stores;
  (* Make cross-shard waits-for cycles visible to every local detector:
     each manager's extra edges are the union of the OTHER managers' raw
     local edges (never their combined view — that would recurse). *)
  Array.iteri
    (fun i (st : Store.t) ->
      Lock_mgr.set_extra_edges st.Store.locks
        (Some
           (fun o ->
             let acc = ref [] in
             Array.iteri
               (fun j (st' : Store.t) ->
                 if j <> i then acc := Lock_mgr.wait_edges st'.Store.locks o @ !acc)
               stores;
             !acc)))
    stores;
  {
    map;
    stores;
    begun = 0;
    committed = 0;
    aborted = 0;
    cross_shard_commits = 0;
    commit_records = 0;
    event_hook = None;
  }

let set_event_hook t hook = t.event_hook <- hook
let emit t ev = match t.event_hook with None -> () | Some f -> f ev

let map t = t.map
let stores t = t.stores
let store t i = t.stores.(i)

let begin_x t =
  (* Shard 0's transaction manager is strided (residue 1 mod n), so an id
     minted here can never collide with any shard's local transaction ids —
     including shard 0's own, whose counter this very mint advances. *)
  let id = (Txn_mgr.fresh_owner t.stores.(0).Store.mgr).Txn.id in
  t.begun <- t.begun + 1;
  emit t (Ev_begun { x_id = id });
  { coord = t; x_id = id; slots = Array.make (Array.length t.stores) None; x_state = `Active }

let check_active x fn =
  match x.x_state with
  | `Active -> ()
  | _ -> invalid_arg (Printf.sprintf "Coordinator.%s: transaction not active" fn)

let slot x i =
  match x.slots.(i) with
  | Some s -> s
  | None ->
    let s = { tx = Txn.make x.x_id; logged = false } in
    x.slots.(i) <- Some s;
    s

let txn_in x i =
  check_active x "txn_in";
  (slot x i).tx

let write_txn_in x i =
  check_active x "write_txn_in";
  let s = slot x i in
  if not s.logged then begin
    Txn_mgr.adopt x.coord.stores.(i).Store.mgr s.tx;
    s.logged <- true
  end;
  s.tx

let touched x =
  let acc = ref [] in
  Array.iteri (fun i s -> if s <> None then acc := i :: !acc) x.slots;
  List.rev !acc

let commit t x =
  check_active x "commit";
  (* Commit records land in ascending shard order; each force makes that
     shard's vote durable before the next shard is asked.  A crash mid-loop
     leaves the committed shards as a prefix; the ack below only happens
     once every shard has the record. *)
  let written = ref 0 in
  Array.iteri
    (fun i s ->
      match s with
      | Some s when s.logged ->
        (* Txn_mgr.commit appends + forces the record and releases this
           shard's locks under the global id. *)
        Txn_mgr.commit t.stores.(i).Store.mgr s.tx;
        t.commit_records <- t.commit_records + 1;
        emit t (Ev_commit_record { x_id = x.x_id; shard = i });
        incr written
      | Some s -> Txn_mgr.finish_read_only t.stores.(i).Store.mgr s.tx
      | None -> ())
    x.slots;
  x.x_state <- `Committed;
  emit t (Ev_acked { x_id = x.x_id });
  t.committed <- t.committed + 1;
  if !written >= 2 then t.cross_shard_commits <- t.cross_shard_commits + 1

let abort t x =
  check_active x "abort";
  Array.iteri
    (fun i s ->
      match s with
      | Some s when s.logged -> Txn_mgr.abort t.stores.(i).Store.mgr s.tx
      | Some s -> Txn_mgr.finish_read_only t.stores.(i).Store.mgr s.tx
      | None -> ())
    x.slots;
  x.x_state <- `Aborted;
  emit t (Ev_aborted { x_id = x.x_id });
  t.aborted <- t.aborted + 1

let sum_slots x f =
  Array.fold_left (fun acc -> function Some s -> acc + f s.tx | None -> acc) 0 x.slots

let blocked_ticks x = sum_slots x (fun tx -> tx.Txn.blocked_ticks)
let give_ups x = sum_slots x (fun tx -> tx.Txn.gave_up)

type stats = {
  begun : int;
  committed : int;
  aborted : int;
  cross_shard_commits : int;
  commit_records : int;
}

let stats (t : t) =
  {
    begun = t.begun;
    committed = t.committed;
    aborted = t.aborted;
    cross_shard_commits = t.cross_shard_commits;
    commit_records = t.commit_records;
  }
