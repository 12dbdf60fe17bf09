module Itbl = Util.Itbl

type owner = int

type grant = Granted | Deadlock

type outcome = [ `Granted | `Conflict of (owner * Mode.t) list ]

type stats = {
  acquires : int;
  waits : int;
  grants_after_wait : int;
  instant_signals : int;
  give_ups : int;
  cancelled_waits : int;
  deadlocks : int;
  releases : int;
  scan_steps : int;
  instant_checks : int;
}

type waiter = {
  w_owner : owner;
  w_mode : Mode.t;
  w_instant : bool;
  w_conversion : bool;
  w_wake : grant -> unit;
}

(* One event per observable lock-table decision, built only while some
   subscriber of the bus handles [topic]. *)
let topic = Obs.Bus.topic ()

type Obs.Bus.event +=
  | Ev_granted of { owner : owner; res : Resource.t; mode : Mode.t; after_wait : bool }
  | Ev_queued of {
      owner : owner;
      res : Resource.t;
      mode : Mode.t;
      instant : bool;
      conversion : bool;
    }
  | Ev_signalled of { owner : owner; res : Resource.t; mode : Mode.t }
      (** instant-duration request signalled: the paper's give-up *)
  | Ev_victim of { owner : owner; res : Resource.t; mode : Mode.t; forced : bool }
      (** wait aborted: deadlock victim, or [forced] switch-drain cancellation *)
  | Ev_dequeued of { owner : owner; res : Resource.t; mode : Mode.t }
      (** wait abandoned by its own owner (release_all while queued) *)
  | Ev_released of { owner : owner; res : Resource.t; mode : Mode.t }

(* One cell per owner holding the resource: the distinct modes it holds, each
   with its acquisition count.  A grant decision sees one holder in nearly
   every case and a handful at most, so the plain list is the whole table.
   The tables that remain are keyed monomorphically — owners through [Itbl],
   resources through [Resource.equal]/[Resource.hash] — so no lock call
   reaches the polymorphic compare or hash. *)
type holder = { h_owner : owner; mutable h_modes : (Mode.t * int) list }

type entry = {
  mutable holders : holder list;
  mutable queue : waiter list; (* FIFO, head first *)
}

module Rtbl = Hashtbl.Make (struct
  type t = Resource.t

  let equal = Resource.equal
  let hash = Resource.hash
end)

(* Per-mode tallies: how often each lock mode was immediately granted, had
   to queue, or named a deadlock victim — the paper's lock-protocol costs
   are mode-specific (RX is what blocks users; R is what the reorganizer
   waits on).  One record per [Mode.index]. *)
type mode_stats = {
  mutable m_acquires : int;
  mutable m_waits : int;
  mutable m_deadlocks : int;
}

type t = {
  entries : entry Rtbl.t;
  owner_index : Resource.t list Itbl.t; (* owner -> resources held, each once *)
  max_locked : int Itbl.t;
  pending : Resource.t Itbl.t; (* owner -> resource it waits on *)
  mutable reorganizers : owner list;
  mutable acquires : int;
  mutable waits : int;
  mutable grants_after_wait : int;
  mutable instant_signals : int;
  mutable deadlocks : int;
  mutable releases : int;
  mutable give_ups : int; (* instant-duration requests signalled: the paper's give-ups *)
  mutable cancelled_waits : int; (* waits cancelled from outside (switch time limit) *)
  mutable scan_steps : int; (* holder cells, waiters and index elements examined *)
  mutable instant_checks : int; (* non-enqueuing grantability probes (OLC fallback tests) *)
  by_mode : mode_stats array;
  bus : Obs.Bus.t;
  (* Extra waits-for edges from outside this lock domain.  A cross-shard
     coordinator installs a closure that returns the union of the OTHER
     shards' local edges for an owner, so cycles spanning shard lock
     managers are still found by the local DFS at enqueue time. *)
  mutable extra_edges : (owner -> owner list) option;
}

let create ?(bus = Obs.Bus.create ()) () =
  {
    entries = Rtbl.create 64;
    owner_index = Itbl.create 16;
    max_locked = Itbl.create 8;
    pending = Itbl.create 8;
    reorganizers = [];
    extra_edges = None;
    acquires = 0;
    waits = 0;
    grants_after_wait = 0;
    instant_signals = 0;
    deadlocks = 0;
    releases = 0;
    give_ups = 0;
    cancelled_waits = 0;
    scan_steps = 0;
    instant_checks = 0;
    by_mode =
      Array.init Mode.arity (fun _ -> { m_acquires = 0; m_waits = 0; m_deadlocks = 0 });
    bus;
  }

let bus t = t.bus
let on t = Obs.Bus.wants t.bus topic
let emit t ev = Obs.Bus.emit t.bus topic ev

let mode_stats t mode = t.by_mode.(Mode.index mode)

let mode_tally t mode =
  let s = mode_stats t mode in
  (s.m_acquires, s.m_waits, s.m_deadlocks)

let register_obs t reg =
  Obs.Registry.gauge reg "lock.acquires" (fun () -> t.acquires);
  Obs.Registry.gauge reg "lock.releases" (fun () -> t.releases);
  Obs.Registry.gauge reg "lock.waits" (fun () -> t.waits);
  Obs.Registry.gauge reg "lock.grants_after_wait" (fun () -> t.grants_after_wait);
  Obs.Registry.gauge reg "lock.instant_signals" (fun () -> t.instant_signals);
  Obs.Registry.gauge reg "lock.give_ups" (fun () -> t.give_ups);
  Obs.Registry.gauge reg "lock.cancelled_waits" (fun () -> t.cancelled_waits);
  Obs.Registry.gauge reg "lock.deadlocks" (fun () -> t.deadlocks);
  Obs.Registry.gauge reg "lock.scan_steps" (fun () -> t.scan_steps);
  Obs.Registry.gauge reg "lock.instant_checks" (fun () -> t.instant_checks);
  List.iter
    (fun mode ->
      let m = Mode.to_string mode in
      Obs.Registry.gauge reg
        (Printf.sprintf "lock.acquires.%s" m)
        (fun () -> let a, _, _ = mode_tally t mode in a);
      Obs.Registry.gauge reg
        (Printf.sprintf "lock.waits.%s" m)
        (fun () -> let _, w, _ = mode_tally t mode in w);
      Obs.Registry.gauge reg
        (Printf.sprintf "lock.deadlock_victims.%s" m)
        (fun () -> let _, _, d = mode_tally t mode in d))
    Mode.all

let register_reorganizer t o =
  if not (List.exists (Int.equal o) t.reorganizers) then t.reorganizers <- o :: t.reorganizers

let entry t res =
  match Rtbl.find_opt t.entries res with
  | Some e -> e
  | None ->
    let e = { holders = []; queue = [] } in
    Rtbl.replace t.entries res e;
    e

let entry_opt t res = Rtbl.find_opt t.entries res

let gc_entry t res e =
  if e.holders = [] && e.queue = [] then Rtbl.remove t.entries res

let rec find_holder t o = function
  | [] -> None
  | h :: rest ->
    t.scan_steps <- t.scan_steps + 1;
    if h.h_owner = o then Some h else find_holder t o rest

let owner_modes t e o =
  match find_holder t o e.holders with Some h -> h.h_modes | None -> []

(* How many times [mode] appears in an owner's holdings (0 = not held), and
   the holdings with that mode's cell removed — [List.assoc_opt] and
   [List.remove_assoc] without their polymorphic compare. *)
let rec held_count (mode : Mode.t) = function
  | [] -> 0
  | (m, n) :: rest -> if m = mode then n else held_count mode rest

let rec without (mode : Mode.t) = function
  | [] -> []
  | ((m, _) as cell) :: rest -> if m = mode then rest else cell :: without mode rest

let index_add t o res =
  let rs = match Itbl.find_opt t.owner_index o with Some rs -> rs | None -> [] in
  let n = List.length rs in
  t.scan_steps <- t.scan_steps + n;
  Itbl.replace t.owner_index o (res :: rs);
  match Itbl.find_opt t.max_locked o with
  | Some m when m > n -> ()
  | _ -> Itbl.replace t.max_locked o (n + 1)

(* The index lists each resource once, so the walk stops at it. *)
let rec without_res t res = function
  | [] -> []
  | r :: rest ->
    t.scan_steps <- t.scan_steps + 1;
    if Resource.equal r res then rest else r :: without_res t res rest

let index_remove t o res =
  match Itbl.find_opt t.owner_index o with
  | None -> ()
  | Some rs -> (
    match without_res t res rs with
    | [] -> Itbl.remove t.owner_index o
    | rs' -> Itbl.replace t.owner_index o rs')

(* Add one acquisition of [mode] to [o]'s cell [h] on [e], or open the cell.
   A new cell is the owner's first hold on [res], so the index does not list
   [res] yet. *)
let add_to t e h o res mode =
  match h with
  | Some h ->
    h.h_modes <-
      (match held_count mode h.h_modes with
      | 0 -> (mode, 1) :: h.h_modes
      | n -> (mode, n + 1) :: without mode h.h_modes)
  | None ->
    e.holders <- { h_owner = o; h_modes = [ (mode, 1) ] } :: e.holders;
    index_add t o res

let add_holding t e o res mode = add_to t e (find_holder t o e.holders) o res mode

let remove_holding t e o res mode =
  match find_holder t o e.holders with
  | None -> invalid_arg "Lock_mgr.release: mode not held"
  | Some h -> (
    match held_count mode h.h_modes with
    | 0 -> invalid_arg "Lock_mgr.release: mode not held"
    | 1 -> (
      match without mode h.h_modes with
      | [] ->
        e.holders <- List.filter (fun h' -> h' != h) e.holders;
        index_remove t o res
      | ms -> h.h_modes <- ms)
    | n -> h.h_modes <- (mode, n - 1) :: without mode h.h_modes)

(* Drop every mode [o] holds on [e] at once (release_all path, which drops
   the owner's index itself). *)
let drop_owner t e o =
  match find_holder t o e.holders with
  | None -> []
  | Some h ->
    e.holders <- List.filter (fun h' -> h' != h) e.holders;
    h.h_modes

(* Can [o] be granted [mode] given current holders (ignoring its own
   holdings)?  Every other holder's modes must be Table-1 compatible with
   the request. *)
let compat_with_holders t e o mode =
  List.for_all
    (fun h ->
      t.scan_steps <- t.scan_steps + 1;
      h.h_owner = o || List.for_all (fun (m, _) -> Mode.compat m mode) h.h_modes)
    e.holders

(* A new (non-conversion) request must not overtake queued waiters it
   conflicts with. *)
let compat_with_queue t e o mode =
  List.for_all
    (fun w ->
      t.scan_steps <- t.scan_steps + 1;
      w.w_owner = o || Mode.compat w.w_mode mode)
    e.queue

let blockers e o mode =
  let hs =
    List.filter_map
      (fun h ->
        if h.h_owner = o then None
        else
          match List.find_opt (fun (m, _) -> not (Mode.compat m mode)) h.h_modes with
          | Some (m, _) -> Some (h.h_owner, m)
          | None -> None)
      e.holders
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b) (* one entry per owner *)
  in
  let ws =
    List.filter_map
      (fun w ->
        if w.w_owner <> o && not (Mode.compat w.w_mode mode) then Some (w.w_owner, w.w_mode)
        else None)
      e.queue
  in
  hs @ ws

(* Re-examine the queue after holders changed: grant (or signal, for instant
   requests) every waiter that is compatible with the holders and with all
   still-blocked waiters ahead of it.  Each grant joins the holders as it is
   decided, so a later waiter in the same pass is judged against it (an [S]
   woken behind a released [X] keeps the [IX] queued after it waiting).
   The woken are then dequeued, reported and woken in queue order. *)
let grant_waiters t res e =
  let blocked_modes = ref [] in
  let still_waiting = ref [] in
  let woken = ref [] in
  List.iter
    (fun w ->
      if
        compat_with_holders t e w.w_owner w.w_mode
        && List.for_all (fun m -> Mode.compat m w.w_mode) !blocked_modes
      then begin
        if w.w_instant then begin
          (* A signalled instant-duration request is the paper's give-up:
             the requester abandons its current attempt and retries. *)
          t.instant_signals <- t.instant_signals + 1;
          t.give_ups <- t.give_ups + 1
        end
        else begin
          t.grants_after_wait <- t.grants_after_wait + 1;
          add_holding t e w.w_owner res w.w_mode
        end;
        woken := w :: !woken
      end
      else begin
        blocked_modes := w.w_mode :: !blocked_modes;
        still_waiting := w :: !still_waiting
      end)
    e.queue;
  e.queue <- List.rev !still_waiting;
  List.iter
    (fun w ->
      Itbl.remove t.pending w.w_owner;
      if on t then
        emit t
          (if w.w_instant then Ev_signalled { owner = w.w_owner; res; mode = w.w_mode }
           else Ev_granted { owner = w.w_owner; res; mode = w.w_mode; after_wait = true });
      w.w_wake Granted)
    (List.rev !woken);
  gc_entry t res e

(* Would [o], holding [held] on [e], be granted [mode] right now?  Its own
   holdings cover the request, or every other holder is compatible with it
   and — unless it is a conversion — so is every queued waiter. *)
let grantable t e o held mode =
  List.exists (fun (m, _) -> Mode.covers ~held:m ~need:mode) held
  || (compat_with_holders t e o mode && (held <> [] || compat_with_queue t e o mode))

let try_acquire t ~owner res mode =
  let e = entry t res in
  let h = find_holder t owner e.holders in
  if grantable t e owner (match h with Some h -> h.h_modes | None -> []) mode then begin
    add_to t e h owner res mode;
    t.acquires <- t.acquires + 1;
    (mode_stats t mode).m_acquires <- (mode_stats t mode).m_acquires + 1;
    if on t then emit t (Ev_granted { owner; res; mode; after_wait = false });
    `Granted
  end
  else begin
    gc_entry t res e;
    `Conflict (blockers e owner mode)
  end

(* Instant-style grantability probe: would [try_acquire] grant right now?
   Unlike [Lock_client.instant] it neither takes the lock nor enqueues on
   conflict — the optimistic read path uses it to test for an RX/X presence
   on a leaf without ever touching the wait queue.  Counted separately
   ([instant_checks]) so probes don't masquerade as acquires. *)
let probe t ~owner res mode =
  t.instant_checks <- t.instant_checks + 1;
  match entry_opt t res with
  | None -> true
  | Some e -> grantable t e owner (owner_modes t e owner) mode

(* ---------------- deadlock detection ---------------- *)

(* Waits-for edges of a waiting owner: the holders and earlier waiters whose
   modes conflict with its pending request. *)
let wait_edges t o =
  match Itbl.find_opt t.pending o with
  | None -> []
  | Some res -> begin
    match entry_opt t res with
    | None -> []
    | Some e -> begin
      match List.find_opt (fun w -> w.w_owner = o) e.queue with
      | None -> []
      | Some w ->
        let holder_edges =
          List.filter_map
            (fun h ->
              if h.h_owner = o || List.for_all (fun (m, _) -> Mode.compat m w.w_mode) h.h_modes
              then None
              else Some h.h_owner)
            e.holders
          |> List.sort Int.compare
        in
        let rec earlier acc = function
          | [] -> acc
          | w' :: _ when w' == w -> acc
          | w' :: rest ->
            let acc =
              if w'.w_owner <> o && not (Mode.compat w'.w_mode w.w_mode) then w'.w_owner :: acc
              else acc
            in
            earlier acc rest
        in
        holder_edges @ earlier [] e.queue
    end
  end

let set_extra_edges t f = t.extra_edges <- f

(* Local edges plus any coordinator-installed cross-shard edges.  The
   installed closure must only consult OTHER managers' [wait_edges] (the raw
   local view), never their [all_edges], or two managers would recurse into
   each other forever. *)
let all_edges t o =
  let local = wait_edges t o in
  match t.extra_edges with
  | None -> local
  | Some f -> local @ List.filter (fun o' -> not (List.exists (Int.equal o') local)) (f o)

let find_cycle t start =
  (* DFS from [start]; return the cycle through [start] if one exists. *)
  let rec dfs path o =
    let next = all_edges t o in
    List.fold_left
      (fun acc o' ->
        match acc with
        | Some _ -> acc
        | None ->
          if o' = start then Some (List.rev (o' :: path))
          else if List.exists (Int.equal o') path then None (* cycle not through start *)
          else dfs (o' :: path) o')
      None next
  in
  dfs [ start ] start

let remove_waiter t o =
  match Itbl.find_opt t.pending o with
  | None -> None
  | Some res -> begin
    match entry_opt t res with
    | None -> None
    | Some e -> begin
      match List.find_opt (fun w -> w.w_owner = o) e.queue with
      | None -> None
      | Some w ->
        e.queue <- List.filter (fun w' -> not (w' == w)) e.queue;
        Itbl.remove t.pending o;
        Some (res, e, w)
    end
  end

let resolve_deadlock t cycle =
  (* Preferred victims first (registered reorganizers give way to user
     transactions, per the paper), then the requester that closed the cycle.
     In a cross-shard cycle some candidates wait in ANOTHER shard's manager
     — [remove_waiter] returns [None] for those — so fall through until a
     locally-waiting candidate is found.  The requester always waits here,
     so the fallback always succeeds. *)
  let candidates =
    List.filter (fun o -> List.exists (Int.equal o) t.reorganizers) cycle
    @ [ List.hd (List.rev cycle) ]
  in
  let rec pick = function
    | [] -> None
    | o :: rest -> (
      match remove_waiter t o with Some r -> Some r | None -> pick rest)
  in
  match pick candidates with
  | None -> ()
  | Some (res, e, w) ->
    t.deadlocks <- t.deadlocks + 1;
    (mode_stats t w.w_mode).m_deadlocks <- (mode_stats t w.w_mode).m_deadlocks + 1;
    (* The victim event precedes the wakes its removal enables, matching the
       order in which the model must replay the queue change. *)
    if on t then emit t (Ev_victim { owner = w.w_owner; res; mode = w.w_mode; forced = false });
    (* Removing the victim may unblock others. *)
    grant_waiters t res e;
    w.w_wake Deadlock

let enqueue t ~owner res mode ~instant ~wake =
  if Itbl.mem t.pending owner then
    invalid_arg "Lock_mgr.enqueue: owner already waiting";
  let e = entry t res in
  let conversion = owner_modes t e owner <> [] in
  let w = { w_owner = owner; w_mode = mode; w_instant = instant; w_conversion = conversion; w_wake = wake } in
  (* Conversions park ahead of ordinary waiters. *)
  if conversion then begin
    let convs, rest = List.partition (fun w' -> w'.w_conversion) e.queue in
    e.queue <- convs @ [ w ] @ rest
  end
  else e.queue <- e.queue @ [ w ];
  Itbl.replace t.pending owner res;
  t.waits <- t.waits + 1;
  (mode_stats t mode).m_waits <- (mode_stats t mode).m_waits + 1;
  if on t then emit t (Ev_queued { owner; res; mode; instant; conversion });
  match find_cycle t owner with
  | Some cycle -> resolve_deadlock t cycle
  | None -> ()

let cancel_wait t ~owner =
  match remove_waiter t owner with
  | None -> false
  | Some (res, e, w) ->
    t.deadlocks <- t.deadlocks + 1;
    t.cancelled_waits <- t.cancelled_waits + 1;
    (mode_stats t w.w_mode).m_deadlocks <- (mode_stats t w.w_mode).m_deadlocks + 1;
    if on t then emit t (Ev_victim { owner = w.w_owner; res; mode = w.w_mode; forced = true });
    grant_waiters t res e;
    w.w_wake Deadlock;
    true

let release t ~owner res mode =
  match entry_opt t res with
  | None -> invalid_arg "Lock_mgr.release: resource not locked"
  | Some e ->
    remove_holding t e owner res mode;
    t.releases <- t.releases + 1;
    if on t then emit t (Ev_released { owner; res; mode });
    grant_waiters t res e

let downgrade t ~owner res ~from_ ~to_ =
  match entry_opt t res with
  | None -> invalid_arg "Lock_mgr.downgrade: resource not locked"
  | Some e ->
    remove_holding t e owner res from_;
    add_holding t e owner res to_;
    if on t then begin
      emit t (Ev_released { owner; res; mode = from_ });
      emit t (Ev_granted { owner; res; mode = to_; after_wait = false })
    end;
    grant_waiters t res e

let release_all t ~owner =
  (match remove_waiter t owner with
  | Some (res, e, w) ->
    if on t then emit t (Ev_dequeued { owner; res; mode = w.w_mode });
    grant_waiters t res e
  | None -> ());
  match Itbl.find_opt t.owner_index owner with
  | None -> ()
  | Some rs ->
    t.scan_steps <- t.scan_steps + List.length rs;
    Itbl.remove t.owner_index owner;
    List.iter
      (fun res ->
        match entry_opt t res with
        | None -> ()
        | Some e ->
          let dropped = drop_owner t e owner in
          if on t then
            List.iter
              (fun (m, n) ->
                for _ = 1 to n do
                  emit t (Ev_released { owner; res; mode = m })
                done)
              dropped;
          t.releases <- t.releases + 1;
          grant_waiters t res e)
      (List.sort Resource.compare rs)

let holds t ~owner res =
  match entry_opt t res with None -> [] | Some e -> List.map fst (owner_modes t e owner)

let held_resources t ~owner =
  match Itbl.find_opt t.owner_index owner with
  | None -> []
  | Some rs ->
    t.scan_steps <- t.scan_steps + List.length rs;
    List.map (fun res -> (res, holds t ~owner res)) rs
    |> List.sort (fun (a, _) (b, _) -> Resource.compare a b)

let holders t res =
  match entry_opt t res with
  | None -> []
  | Some e ->
    List.map (fun h -> (h.h_owner, List.map fst h.h_modes)) e.holders
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let waiters t res =
  match entry_opt t res with
  | None -> []
  | Some e -> List.map (fun w -> (w.w_owner, w.w_mode)) e.queue

let locked_count t ~owner =
  match Itbl.find_opt t.owner_index owner with None -> 0 | Some rs -> List.length rs

let max_locked_count t ~owner =
  match Itbl.find_opt t.max_locked owner with Some m -> m | None -> 0

let reset_max_locked t ~owner = Itbl.remove t.max_locked owner

let clear t =
  Rtbl.reset t.entries;
  Itbl.reset t.owner_index;
  Itbl.reset t.max_locked;
  Itbl.reset t.pending

let stats t =
  {
    acquires = t.acquires;
    waits = t.waits;
    grants_after_wait = t.grants_after_wait;
    instant_signals = t.instant_signals;
    give_ups = t.give_ups;
    cancelled_waits = t.cancelled_waits;
    deadlocks = t.deadlocks;
    releases = t.releases;
    scan_steps = t.scan_steps;
    instant_checks = t.instant_checks;
  }

let reset_stats t =
  t.acquires <- 0;
  t.waits <- 0;
  t.grants_after_wait <- 0;
  t.instant_signals <- 0;
  t.deadlocks <- 0;
  t.releases <- 0;
  t.give_ups <- 0;
  t.cancelled_waits <- 0;
  t.scan_steps <- 0;
  t.instant_checks <- 0;
  Array.iter
    (fun s ->
      s.m_acquires <- 0;
      s.m_waits <- 0;
      s.m_deadlocks <- 0)
    t.by_mode
