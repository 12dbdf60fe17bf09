module Lock_mgr = Lockmgr.Lock_mgr

exception Deadlock_victim

let topic = Obs.Bus.topic ()

type Obs.Bus.event +=
  | Waited of { txn : int; res : Lockmgr.Resource.t; mode : Lockmgr.Mode.t; instant : bool;
      started : int; ticks : int; outcome : Lock_mgr.grant }

let try_acquire mgr ~txn res mode = Lock_mgr.try_acquire mgr ~owner:txn.Txn.id res mode

let block mgr ~txn res mode ~instant =
  let started = Sched.Engine.current_time () in
  let result = ref Lock_mgr.Granted in
  Sched.Engine.suspend (fun resume ->
      Lock_mgr.enqueue mgr ~owner:txn.Txn.id res mode ~instant ~wake:(fun g ->
          result := g;
          resume ()));
  let ticks = Sched.Engine.current_time () - started in
  Txn.note_wait txn ~ticks;
  let bus = Lock_mgr.bus mgr in
  if Obs.Bus.wants bus topic then
    Obs.Bus.emit bus topic
      (Waited { txn = txn.Txn.id; res; mode; instant; started; ticks; outcome = !result });
  match !result with
  | Lock_mgr.Granted -> ()
  | Lock_mgr.Deadlock -> raise Deadlock_victim

let wait_queued mgr ~txn res mode = block mgr ~txn res mode ~instant:false

let acquire mgr ~txn res mode =
  match try_acquire mgr ~txn res mode with
  | `Granted -> ()
  | `Conflict _ -> wait_queued mgr ~txn res mode

let instant mgr ~txn res mode =
  match try_acquire mgr ~txn res mode with
  | `Granted ->
    (* Immediately grantable: an instant-duration lock is acquired and
       dropped in one step. *)
    Lock_mgr.release mgr ~owner:txn.Txn.id res mode
  | `Conflict _ -> block mgr ~txn res mode ~instant:true

let release mgr ~txn res mode = Lock_mgr.release mgr ~owner:txn.Txn.id res mode
let release_all mgr ~txn = Lock_mgr.release_all mgr ~owner:txn.Txn.id
