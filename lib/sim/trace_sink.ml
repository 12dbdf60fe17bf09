module Trace = Obs.Trace
module Lock_mgr = Lockmgr.Lock_mgr
module Lock_client = Transact.Lock_client
module Buffer_pool = Pager.Buffer_pool
module Prot = Reorg.Prot
module Unit_exec = Reorg.Unit_exec

let res_mode res mode =
  [
    ("res", Trace.Str (Lockmgr.Resource.to_string res));
    ("mode", Trace.Str (Lockmgr.Mode.to_string mode));
  ]

let phase_span = function
  | Prot.Pass1 { workers } -> ("pass1", [ ("workers", Trace.Int workers) ])
  | Prot.Pass2 -> ("pass2", [])
  | Prot.Pass3 -> ("pass3", [])
  | Prot.Pass3_scan -> ("pass3.scan", [])
  | Prot.Pass3_switch { old_root; new_root } ->
    ("pass3.switch", [ ("old_root", Trace.Int old_root); ("new_root", Trace.Int new_root) ])

(* One span per unit attempt, named by unit kind, closed with the outcome. *)
let attempt_span = function
  | Unit_exec.Compact { base; leaves; _ } ->
    ("unit.compact", [ ("base", Trace.Int base); ("leaves", Trace.Int (List.length leaves)) ])
  | Unit_exec.Swap { a; b; _ } -> ("unit.swap", [ ("a", Trace.Int a); ("b", Trace.Int b) ])
  | Unit_exec.Move { org; dest; _ } ->
    ("unit.move", [ ("org", Trace.Int org); ("dest", Trace.Int dest) ])

let outcome_label = function
  | Some (Unit_exec.Done _) -> "done"
  | Some Unit_exec.Stale -> "stale"
  | Some Unit_exec.Gave_up -> "gave-up"
  | None -> "exception"

let begin_span tr (name, args) =
  Trace.begin_span tr ~tid:(Sched.Engine.current_fiber ()) ~args ~cat:"reorg" name

let render tr = function
  | Lock_mgr.Ev_victim { owner; res; mode; forced } ->
    Trace.instant tr ~cat:"lock"
      (if forced then "lock.forced-abort" else "lock.deadlock-victim")
      ~args:(("owner", Trace.Int owner) :: res_mode res mode)
  | Lock_client.Waited { txn; res; mode; instant; started; ticks; outcome } ->
    let outcome =
      match outcome with Lock_mgr.Granted -> "granted" | Lock_mgr.Deadlock -> "deadlock"
    in
    Trace.complete tr
      ~tid:(Sched.Engine.current_fiber ())
      ~cat:"lock" ~ts:started ~dur:ticks
      (if instant then "lock.rs-wait" else "lock.wait")
      ~args:(res_mode res mode @ [ ("txn", Trace.Int txn); ("outcome", Trace.Str outcome) ])
  | Buffer_pool.Dep_flushed { blocked; prereq } ->
    Trace.instant tr ~cat:"pager" "pager.dep-flush"
      ~args:[ ("blocked", Trace.Int blocked); ("prereq", Trace.Int prereq) ]
  | Buffer_pool.Flushed pid ->
    Trace.instant tr ~cat:"pager" "pager.flush" ~args:[ ("pid", Trace.Int pid) ]
  | Buffer_pool.Torn_detected pid ->
    Trace.instant tr ~cat:"pager" "pager.torn-page" ~args:[ ("pid", Trace.Int pid) ]
  | Wal.Log.Forced { from; upto } ->
    Trace.instant tr ~cat:"wal" "wal.force"
      ~args:[ ("from", Trace.Int from); ("to", Trace.Int upto) ]
  | Wal.Log.Truncated { base; records } ->
    Trace.instant tr ~cat:"wal" "wal.truncate"
      ~args:[ ("base", Trace.Int base); ("records", Trace.Int records) ]
  | Prot.Phase_begin phase -> begin_span tr (phase_span phase)
  | Prot.Phase_end _ -> Trace.end_span tr ~tid:(Sched.Engine.current_fiber ()) ()
  | Unit_exec.Attempt plan -> begin_span tr (attempt_span plan)
  | Unit_exec.Attempt_end outcome ->
    Trace.end_span tr
      ~tid:(Sched.Engine.current_fiber ())
      ~args:[ ("outcome", Trace.Str (outcome_label outcome)) ]
      ()
  | _ -> ()

let subscribe tr bus =
  Obs.Bus.subscribe bus
    [ Lock_mgr.topic; Lock_client.topic; Buffer_pool.topic; Wal.Log.topic; Prot.topic ]
    (render tr)
