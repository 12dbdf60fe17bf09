type entry = { body : Record.body; size : int }

let topic = Obs.Bus.topic ()

type Obs.Bus.event +=
  | Forced of { from : Lsn.t; upto : Lsn.t }
  | Truncated of { base : int; records : int }

type stats = { records : int; bytes : int; forced : int }

type t = {
  mutable entries : entry option array; (* index = lsn - base - 1 *)
  mutable base : int; (* number of LSNs truncated away before entries.(0) *)
  mutable next : Lsn.t; (* next LSN to assign *)
  mutable flushed : Lsn.t;
  mutable ckpt : Lsn.t; (* last stable checkpoint, nil if none *)
  mutable records : int;
  mutable bytes : int;
  mutable forced : int;
  mutable truncated : int; (* records reclaimed by truncate *)
  mutable reset_floor : Lsn.t; (* head LSN at the last reset_stats *)
  mutable fault : Pager.Fault.t option;
  bus : Obs.Bus.t;
}

let create ?(bus = Obs.Bus.create ()) () =
  {
    entries = Array.make 64 None;
    base = 0;
    next = 1;
    flushed = Lsn.nil;
    ckpt = Lsn.nil;
    records = 0;
    bytes = 0;
    forced = 0;
    truncated = 0;
    reset_floor = Lsn.nil;
    fault = None;
    bus;
  }

let set_fault t fault = t.fault <- Some fault

let register_obs t reg =
  Obs.Registry.gauge reg "wal.records" (fun () -> t.records);
  Obs.Registry.gauge reg "wal.bytes" (fun () -> t.bytes);
  Obs.Registry.gauge reg "wal.forced" (fun () -> t.forced);
  Obs.Registry.gauge reg "wal.flushed_lsn" (fun () -> t.flushed)

let slot t lsn = lsn - t.base - 1

let ensure t n =
  if n > Array.length t.entries then begin
    let fresh = Array.make (max n (2 * Array.length t.entries)) None in
    Array.blit t.entries 0 fresh 0 (Array.length t.entries);
    t.entries <- fresh
  end

let append t body =
  let lsn = t.next in
  t.next <- lsn + 1;
  ensure t (slot t lsn + 1);
  let size = Record.encoded_size body in
  t.entries.(slot t lsn) <- Some { body; size };
  t.records <- t.records + 1;
  t.bytes <- t.bytes + size;
  lsn

let head_lsn t = t.next - 1

let force t lsn =
  let lsn = min lsn (head_lsn t) in
  if lsn > t.flushed then begin
    (* The fault controller decides how many of the pending records reach
       stable storage — all of them normally, a prefix if this force trips a
       torn-tail plan.  Tearing the tail here is sound: this very call never
       returns (check below raises), so nothing covered by it was ever
       acknowledged to a caller. *)
    let pending = lsn - t.flushed in
    let allowed =
      match t.fault with
      | None -> pending
      | Some f -> Pager.Fault.on_force f ~records:pending
    in
    let lsn = t.flushed + allowed in
    if allowed > 0 then begin
      t.forced <- t.forced + 1;
      if Obs.Bus.wants t.bus topic then
        Obs.Bus.emit t.bus topic (Forced { from = t.flushed; upto = lsn });
      (* Track the most recent checkpoint as it becomes stable. *)
      for l = t.flushed + 1 to lsn do
        match t.entries.(slot t l) with
        | Some { body = Record.Checkpoint _; _ } -> t.ckpt <- l
        | _ -> ()
      done;
      t.flushed <- lsn
    end;
    match t.fault with None -> () | Some f -> Pager.Fault.check f
  end

let force_all t = force t (head_lsn t)

let flushed_lsn t = t.flushed

let base_lsn t = t.base

let find t lsn =
  (* LSNs at or below [base] were reclaimed by {!truncate}. *)
  if lsn <= t.base || lsn < 1 || lsn > head_lsn t then raise Not_found;
  match t.entries.(slot t lsn) with None -> raise Not_found | Some e -> e

let read t lsn = (find t lsn).body
let record_size t lsn = (find t lsn).size

let iter ?(from = 1) ?upto t f =
  let upto = match upto with None -> t.flushed | Some u -> min u t.flushed in
  for lsn = max (t.base + 1) (max 1 from) to upto do
    match t.entries.(slot t lsn) with None -> () | Some e -> f lsn e.body
  done

let crash t =
  (* Volatile tail vanishes; the LSN sequence continues (real systems reuse
     offsets, but distinct LSNs keep page-LSN comparisons unambiguous).
     Entries appended before the last [reset_stats] are no longer in the
     counters, so only decrement for the ones appended after the mark — a
     reset-then-crash must not drive the gauges negative. *)
  for lsn = t.flushed + 1 to head_lsn t do
    match t.entries.(slot t lsn) with
    | Some e ->
      if lsn > t.reset_floor then begin
        t.records <- t.records - 1;
        t.bytes <- t.bytes - e.size
      end;
      t.entries.(slot t lsn) <- None
    | None -> ()
  done

let truncate t ~keep_from =
  (* Reclaim stable entries below [keep_from]: advance [base] and compact the
     array.  Only the stable prefix may go — the volatile tail is still
     awaiting a force — and [base] never moves backwards.  Byte/record stats
     measure appended log volume, so truncation leaves them alone. *)
  let keep_from = max keep_from (t.base + 1) in
  let keep_from = min keep_from (t.flushed + 1) in
  (* Metadata dependency: redo of a Reorg_move needs its unit's BEGIN record
     (the unit type decides how the move replays — a swap is not a compact).
     A finished unit's pages can stay dirty long after its BEGIN, so the
     caller's recovery-LSN floor covers the moves but not the BEGIN.  Lower
     [keep_from] to the oldest BEGIN any retained move/modify refers to,
     iterating because newly retained moves can refer to still older
     BEGINs of interleaved (parallel-worker) units. *)
  let keep_from =
    let begins = Hashtbl.create 8 and refs = ref [] in
    for lsn = t.base + 1 to t.flushed do
      match t.entries.(slot t lsn) with
      | Some { body = Record.Reorg_begin { unit_id; _ }; _ } ->
        Hashtbl.replace begins unit_id lsn
      | Some { body = Record.Reorg_move { unit_id; _ } | Record.Reorg_modify { unit_id; _ }; _ }
        ->
        refs := (lsn, unit_id) :: !refs
      | _ -> ()
    done;
    let keep = ref keep_from in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (lsn, unit_id) ->
          if lsn >= !keep then
            match Hashtbl.find_opt begins unit_id with
            | Some b when b < !keep ->
              keep := b;
              changed := true
            | _ -> ())
        !refs
    done;
    !keep
  in
  let new_base = keep_from - 1 in
  let dropped = new_base - t.base in
  if dropped > 0 then begin
    let reclaimed = ref 0 in
    for lsn = t.base + 1 to new_base do
      match t.entries.(slot t lsn) with Some _ -> incr reclaimed | None -> ()
    done;
    let retained = head_lsn t - new_base in
    let cap = max 64 retained in
    let fresh = Array.make cap None in
    Array.blit t.entries dropped fresh 0 retained;
    t.entries <- fresh;
    t.base <- new_base;
    t.truncated <- t.truncated + !reclaimed;
    if t.ckpt <> Lsn.nil && t.ckpt <= new_base then t.ckpt <- Lsn.nil;
    if Obs.Bus.wants t.bus topic then
      Obs.Bus.emit t.bus topic (Truncated { base = t.base; records = !reclaimed })
  end

let truncated_records t = t.truncated

let last_checkpoint t =
  if t.ckpt = Lsn.nil then None
  else
    match t.entries.(slot t t.ckpt) with
    | Some e -> Some (t.ckpt, e.body)
    | None -> None

let stats t = { records = t.records; bytes = t.bytes; forced = t.forced }

let reset_stats t =
  t.records <- 0;
  t.bytes <- 0;
  t.forced <- 0;
  (* Entries at or below this mark are no longer reflected in the counters;
     a later [crash] must not subtract them. *)
  t.reset_floor <- head_lsn t
