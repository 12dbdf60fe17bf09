(* The reorganizer's typed events on the store's bus: the protocol steps
   the model checker replays, plus the pass spans and progress facts the
   trace and the health tracker follow.

   The unit-lifecycle events (the Unit_ constructors) are derived at the
   single choke point
   every reorganization WAL record flows through — [Ctx.log_reorg] — plus two
   explicit emissions for protocol steps that are not log records (the §5.2
   give-up decision and recovery's decision to finish a unit).  The pass-3
   switch events are emitted by [Pass3] and [Side_file] at the protocol
   steps of §7. *)

let topic = Obs.Bus.topic ()

type pass3_mode = Fresh | Resume | Finish

type phase =
  | Pass1 of { workers : int }
  | Pass2
  | Pass3
  | Pass3_scan
  | Pass3_switch of { old_root : int; new_root : int }

type Obs.Bus.event +=
  | Unit_begin of {
      actor : int;
      unit_id : int;
      kind : Wal.Record.reorg_type;
      bases : int list;
      leaves : int list;
      lsn : int;
    }
  | Unit_move of { actor : int; unit_id : int; org : int; dest : int; lsn : int }
  | Unit_modify of { actor : int; unit_id : int; base : int; lsn : int }
  | Unit_undo of { actor : int; unit_id : int }
  | Unit_end of { actor : int; unit_id : int; largest_key : int; lsn : int }
  | Unit_recover of { actor : int; unit_id : int }
  | Pass3_start of { actor : int; mode : pass3_mode; ck : int; lambda : bool }
  | Scan_base of { actor : int; base : int; ck_before : int; ck_after : int }
  | Scan_done of { actor : int }
  | Catchup of { actor : int; applied : int }
  | Side_locked of { actor : int }
  | Switch_logged of {
      actor : int;
      old_root : int;
      new_root : int;
      old_name : int;
      new_name : int;
      backlog : int;
      lsn : int;
    }
  | Forced_abort of { actor : int; owner : int; lambda : bool }
  | Switch_cleanup of { actor : int }
  | Side_accept of { key : int; backlog : int }
  | Side_redirect of { key : int }
  | Phase_begin of phase
  | Phase_end of phase
  | Switched
  | Side_backlog of { size : int; change : Obs.Health.side_event }

let mode_to_string = function Fresh -> "fresh" | Resume -> "resume" | Finish -> "finish"

let key_to_string k =
  if k = min_int then "-inf" else if k = max_int then "+inf" else string_of_int k

let to_string = function
  | Unit_begin { actor; unit_id; kind; bases; leaves; lsn } ->
    Printf.sprintf "Unit_begin{actor=%d unit=%d kind=%s bases=%d leaves=%d lsn=%d}" actor
      unit_id
      (Wal.Record.reorg_type_to_string kind)
      (List.length bases) (List.length leaves) lsn
  | Unit_move { actor; unit_id; org; dest; lsn } ->
    Printf.sprintf "Unit_move{actor=%d unit=%d org=%d dest=%d lsn=%d}" actor unit_id org
      dest lsn
  | Unit_modify { actor; unit_id; base; lsn } ->
    Printf.sprintf "Unit_modify{actor=%d unit=%d base=%d lsn=%d}" actor unit_id base lsn
  | Unit_undo { actor; unit_id } -> Printf.sprintf "Unit_undo{actor=%d unit=%d}" actor unit_id
  | Unit_end { actor; unit_id; largest_key; lsn } ->
    Printf.sprintf "Unit_end{actor=%d unit=%d lk=%s lsn=%d}" actor unit_id
      (key_to_string largest_key) lsn
  | Unit_recover { actor; unit_id } ->
    Printf.sprintf "Unit_recover{actor=%d unit=%d}" actor unit_id
  | Pass3_start { actor; mode; ck; lambda } ->
    Printf.sprintf "Pass3_start{actor=%d mode=%s ck=%s lambda=%b}" actor
      (mode_to_string mode) (key_to_string ck) lambda
  | Scan_base { actor; base; ck_before; ck_after } ->
    Printf.sprintf "Scan_base{actor=%d base=%d ck:%s->%s}" actor base
      (key_to_string ck_before) (key_to_string ck_after)
  | Scan_done { actor } -> Printf.sprintf "Scan_done{actor=%d}" actor
  | Catchup { actor; applied } -> Printf.sprintf "Catchup{actor=%d applied=%d}" actor applied
  | Side_locked { actor } -> Printf.sprintf "Side_locked{actor=%d}" actor
  | Switch_logged { actor; old_root; new_root; old_name; new_name; backlog; lsn } ->
    Printf.sprintf "Switch_logged{actor=%d root:%d->%d name:%d->%d backlog=%d lsn=%d}" actor
      old_root new_root old_name new_name backlog lsn
  | Forced_abort { actor; owner; lambda } ->
    Printf.sprintf "Forced_abort{actor=%d owner=%d lambda=%b}" actor owner lambda
  | Switch_cleanup { actor } -> Printf.sprintf "Switch_cleanup{actor=%d}" actor
  | Side_accept { key; _ } -> Printf.sprintf "Side_accept{key=%d}" key
  | Side_redirect { key } -> Printf.sprintf "Side_redirect{key=%d}" key
  | _ -> "<not a protocol event>"

