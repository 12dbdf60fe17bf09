(* The conformance checker: owns one machine per model, fans a store's event
   stream out to them, and collects violations.  Track keys are prefixed
   with the shard ("s0/Page 17", "s1/unit3") so one checker covers a whole
   sharded engine; [cycle] relabels violations with the current scenario
   phase so a torture report says which crash boundary tripped it. *)

module Lock_mgr = Lockmgr.Lock_mgr
module Prot = Reorg.Prot
module Coordinator = Shard.Coordinator

type t = {
  locks : (Lock_model.state, Obs.Bus.event) Machine.t;
  units : (Unit_model.state, Obs.Bus.event) Machine.t;
  actors : (Unit_model.actor_state, Obs.Bus.event) Machine.t;
  switches : (Switch_model.state, Obs.Bus.event) Machine.t;
  olc : (Olc_model.state, Olc_model.read) Machine.t;
  coords : (Coord_model.state, Coordinator.event) Machine.t;
  mutable label : string;
  mutable violations : Machine.violation list; (* newest first *)
  max_violations : int;
  mutable events : int;
  mutable retired_tracks : int; (* tracks dropped by earlier resets *)
}

let create ?(max_violations = 20) () =
  let t_ref = ref None in
  let sink v =
    match !t_ref with
    | None -> ()
    | Some t ->
      if List.length t.violations < t.max_violations then
        t.violations <-
          { v with Machine.v_track = Printf.sprintf "%s%s" t.label v.Machine.v_track }
          :: t.violations
  in
  let t =
    {
      locks = Machine.create Lock_model.def ~sink;
      units = Machine.create Unit_model.lifecycle ~sink;
      actors = Machine.create Unit_model.actor ~sink;
      switches = Machine.create Switch_model.def ~sink;
      olc = Machine.create Olc_model.def ~sink;
      coords = Machine.create Coord_model.def ~sink;
      label = "";
      violations = [];
      max_violations;
      events = 0;
      retired_tracks = 0;
    }
  in
  t_ref := Some t;
  t

let live_tracks t =
  Machine.track_count t.locks + Machine.track_count t.units + Machine.track_count t.actors
  + Machine.track_count t.switches + Machine.track_count t.olc + Machine.track_count t.coords

let reset t =
  t.retired_tracks <- t.retired_tracks + live_tracks t;
  Machine.reset t.locks;
  Machine.reset t.units;
  Machine.reset t.actors;
  Machine.reset t.switches;
  Machine.reset t.olc;
  Machine.reset t.coords

let cycle t label =
  (* New scenario phase: protocol state restarts from scratch (fresh engine
     or post-crash restart), but accumulated violations are kept. *)
  t.label <- (if label = "" then "" else label ^ ": ");
  reset t

(* A crash wipes all volatile protocol state: locks are gone, in-flight
   units and switches are represented again by recovery's own events. *)
let crash = reset

let feed t ~shard ev =
  match ev with
  | Lock_mgr.Ev_granted { res; _ } | Lock_mgr.Ev_queued { res; _ }
  | Lock_mgr.Ev_signalled { res; _ } | Lock_mgr.Ev_victim { res; _ }
  | Lock_mgr.Ev_dequeued { res; _ } | Lock_mgr.Ev_released { res; _ } ->
    t.events <- t.events + 1;
    let track = Printf.sprintf "s%d/%s" shard (Lockmgr.Resource.to_string res) in
    Machine.step t.locks ~track ev
  | Prot.Unit_begin { unit_id; actor; _ } | Prot.Unit_move { unit_id; actor; _ }
  | Prot.Unit_modify { unit_id; actor; _ } | Prot.Unit_undo { unit_id; actor }
  | Prot.Unit_end { unit_id; actor; _ } | Prot.Unit_recover { unit_id; actor } ->
    t.events <- t.events + 1;
    Machine.step t.units ~track:(Printf.sprintf "s%d/unit%d" shard unit_id) ev;
    Machine.step t.actors ~track:(Printf.sprintf "s%d/actor%d" shard actor) ev;
    (* Unit events move the switch machine's LSN high-watermark. *)
    Machine.step t.switches ~track:(Printf.sprintf "s%d" shard) ev
  | Prot.Pass3_start _ | Prot.Scan_base _ | Prot.Scan_done _ | Prot.Catchup _
  | Prot.Side_locked _ | Prot.Switch_logged _ | Prot.Forced_abort _ | Prot.Switch_cleanup _
  | Prot.Side_accept _ | Prot.Side_redirect _ ->
    t.events <- t.events + 1;
    Machine.step t.switches ~track:(Printf.sprintf "s%d" shard) ev
  | _ -> ()

(* The oracle runs here, in the subscriber, synchronously at the emit site:
   nothing can run between the optimistic read and this fresh descent, so
   the verdict is ground truth — and a store without a checker never pays
   for the extra descent. *)
let attach t ~shard (st : Shard.Store.t) =
  Obs.Bus.subscribe st.Shard.Store.bus
    [ Lock_mgr.topic; Prot.topic; Btree.Access.topic ]
    (function
      | Btree.Access.Olc_read { leaf; key; result } ->
        t.events <- t.events + 1;
        let valid = result = Btree.Tree.search st.Shard.Store.tree key in
        Machine.step t.olc ~track:(Printf.sprintf "s%d/olc" shard) { Olc_model.leaf; key; valid }
      | ev -> feed t ~shard ev)

let coord_hook t =
  fun ev ->
    t.events <- t.events + 1;
    let x_id =
      match ev with
      | Coordinator.Ev_begun { x_id }
      | Coordinator.Ev_commit_record { x_id; _ }
      | Coordinator.Ev_acked { x_id }
      | Coordinator.Ev_aborted { x_id } ->
        x_id
    in
    Machine.step t.coords ~track:(Printf.sprintf "x%d" x_id) ev

let attach_coordinator t coord = Coordinator.set_event_hook coord (Some (coord_hook t))

let finalize t =
  (* Only the unit lifecycle and switch machines have non-trivial acceptance
     (open units / unfinished switches); the others accept everywhere, and
     the coordinator machine is finalized too (unacked transactions). *)
  Machine.finalize t.units;
  Machine.finalize t.actors;
  Machine.finalize t.switches;
  Machine.finalize t.olc;
  Machine.finalize t.coords

let events t = t.events

let tracks t = t.retired_tracks + live_tracks t

let violations t = List.rev t.violations

let ok t = t.violations = []

let first_violation t =
  match List.rev t.violations with [] -> None | v :: _ -> Some v

let report t =
  match violations t with
  | [] -> Printf.sprintf "conformance ok: %d events, 0 violations" t.events
  | vs ->
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "conformance FAILED: %d events, %d violation(s)\n" t.events
         (List.length vs));
    List.iter
      (fun v ->
        Buffer.add_string b (Machine.violation_to_string v);
        Buffer.add_char b '\n')
      vs;
    Buffer.contents b
