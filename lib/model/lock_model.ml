(* Model 1: the Table-1 lock protocol, one machine track per (shard,
   resource).  The state is the model's own view of the resource — who holds
   which modes with what multiplicity, who is queued — rebuilt purely from
   the lock manager's events; every grant decision of the real
   lock manager is judged against the literal {!Table1} matrix, so a wrong
   compatibility answer (or a grant that jumps a queue it shouldn't) is a
   guard violation even though the implementation was internally
   consistent. *)

module Mode = Lockmgr.Mode
module Lock_mgr = Lockmgr.Lock_mgr

type state = {
  holders : (int * (Mode.t * int) list) list; (* owner -> held modes with multiplicity *)
  queue : (int * Mode.t * bool) list; (* owner, mode, instant; FIFO oldest first *)
}

let initial = { holders = []; queue = [] }

let holder_modes st o = match List.assoc_opt o st.holders with Some ms -> ms | None -> []

(* Owners holding [m] (with any multiplicity). *)
let owners_of st m =
  List.filter_map (fun (o, ms) -> if List.mem_assoc m ms then Some o else None) st.holders

(* The Table-1 grant test the implementation must agree with: every held mode
   that conflicts with the request must be held by the requester alone (its
   own holdings never block a conversion). *)
let grantable st ~owner ~mode =
  List.for_all
    (fun (_, ms) ->
      List.for_all (fun (m, _) -> Table1.compatible m mode || owners_of st m = [ owner ]) ms)
    st.holders

let queued st o = List.exists (fun (o', _, _) -> o' = o) st.queue

let queued_as st o mode instant =
  List.exists (fun (o', m, i) -> o' = o && m = mode && i = instant) st.queue

let drop_queued st o = { st with queue = List.filter (fun (o', _, _) -> o' <> o) st.queue }

let add_holding st o mode =
  let ms = holder_modes st o in
  let ms' =
    match List.assoc_opt mode ms with
    | Some n -> (mode, n + 1) :: List.remove_assoc mode ms
    | None -> (mode, 1) :: ms
  in
  { st with holders = (o, ms') :: List.remove_assoc o st.holders }

let drop_holding st o mode =
  let ms = holder_modes st o in
  match List.assoc_opt mode ms with
  | None -> st
  | Some n ->
    let ms' = if n > 1 then (mode, n - 1) :: List.remove_assoc mode ms else List.remove_assoc mode ms in
    {
      st with
      holders =
        (if ms' = [] then List.remove_assoc o st.holders
         else (o, ms') :: List.remove_assoc o st.holders);
    }

let pp_state st =
  let hs =
    List.map
      (fun (o, ms) ->
        Printf.sprintf "%d:%s" o
          (String.concat "+"
             (List.map
                (fun (m, n) ->
                  if n = 1 then Mode.to_string m else Printf.sprintf "%sx%d" (Mode.to_string m) n)
                ms)))
      (List.sort compare st.holders)
  in
  let qs =
    List.map
      (fun (o, m, i) -> Printf.sprintf "%d:%s%s" o (Mode.to_string m) (if i then "?" else ""))
      st.queue
  in
  Printf.sprintf "holders=[%s] queue=[%s]" (String.concat " " hs) (String.concat " " qs)

let pp_event = function
  | Lock_mgr.Ev_granted { owner; mode; after_wait; _ } ->
    Printf.sprintf "granted owner=%d mode=%s%s" owner (Mode.to_string mode)
      (if after_wait then " (after wait)" else "")
  | Lock_mgr.Ev_queued { owner; mode; instant; conversion; _ } ->
    Printf.sprintf "queued owner=%d mode=%s%s%s" owner (Mode.to_string mode)
      (if instant then " instant" else "")
      (if conversion then " conversion" else "")
  | Lock_mgr.Ev_signalled { owner; mode; _ } ->
    Printf.sprintf "signalled owner=%d mode=%s" owner (Mode.to_string mode)
  | Lock_mgr.Ev_victim { owner; mode; forced; _ } ->
    Printf.sprintf "victim owner=%d mode=%s%s" owner (Mode.to_string mode)
      (if forced then " (forced)" else "")
  | Lock_mgr.Ev_dequeued { owner; mode; _ } ->
    Printf.sprintf "dequeued owner=%d mode=%s" owner (Mode.to_string mode)
  | Lock_mgr.Ev_released { owner; mode; _ } ->
    Printf.sprintf "released owner=%d mode=%s" owner (Mode.to_string mode)
  | _ -> "<not a lock event>"

let def : (state, Obs.Bus.event) Machine.def =
  {
    Machine.d_name = "table1-locks";
    d_initial = initial;
    d_pp_state = pp_state;
    d_pp_event = pp_event;
    d_rules =
      [
        Machine.rule "grant"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_granted _ -> true | _ -> false)
          ~guards:
            [
              ( "table1-compatible-with-other-holders",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_granted { owner; mode; _ } -> grantable st ~owner ~mode
                  | _ -> false );
              ( "grant-after-wait-was-queued",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_granted { owner; mode; after_wait; _ } ->
                    (not after_wait) || queued_as st owner mode false
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Lock_mgr.Ev_granted { owner; mode; after_wait; _ } ->
              let st = if after_wait then drop_queued st owner else st in
              add_holding st owner mode
            | _ -> st);
        Machine.rule "queue"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_queued _ -> true | _ -> false)
          ~guards:
            [
              ( "conversion-flag-matches-holdings",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_queued { owner; conversion; _ } ->
                    conversion = (holder_modes st owner <> [])
                  | _ -> false );
              ( "wait-is-justified",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_queued { owner; mode; conversion; _ } ->
                    let holder_conflict =
                      List.exists
                        (fun (_, ms) ->
                          List.exists
                            (fun (m, _) ->
                              (not (Table1.compatible m mode)) && owners_of st m <> [ owner ])
                            ms)
                        st.holders
                    in
                    let queue_conflict =
                      (not conversion)
                      && List.exists
                           (fun (o', m', _) -> o' <> owner && not (Table1.compatible m' mode))
                           st.queue
                    in
                    holder_conflict || queue_conflict
                  | _ -> false );
              ( "not-already-queued",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_queued { owner; _ } -> not (queued st owner)
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Lock_mgr.Ev_queued { owner; mode; instant; _ } ->
              { st with queue = st.queue @ [ (owner, mode, instant) ] }
            | _ -> st);
        Machine.rule "signal"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_signalled _ -> true | _ -> false)
          ~guards:
            [
              (* No grantability guard here: a wake batch grants and signals
                 against the holder set at the start of the batch, so an
                 instant request may legitimately be signalled alongside a
                 conflicting grant (the requester just retries). *)
              ( "signalled-wait-was-queued-instant",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_signalled { owner; mode; _ } -> queued_as st owner mode true
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Lock_mgr.Ev_signalled { owner; _ } -> drop_queued st owner
            | _ -> st);
        Machine.rule "victim"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_victim _ -> true | _ -> false)
          ~guards:
            [
              ( "victim-was-queued",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_victim { owner; _ } -> queued st owner
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with Lock_mgr.Ev_victim { owner; _ } -> drop_queued st owner | _ -> st);
        Machine.rule "dequeue"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_dequeued _ -> true | _ -> false)
          ~guards:
            [
              ( "dequeued-wait-was-queued",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_dequeued { owner; _ } -> queued st owner
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with Lock_mgr.Ev_dequeued { owner; _ } -> drop_queued st owner | _ -> st);
        Machine.rule "release"
          ~applies:(fun _ ev -> match ev with Lock_mgr.Ev_released _ -> true | _ -> false)
          ~guards:
            [
              ( "released-mode-was-held",
                fun st ev ->
                  match ev with
                  | Lock_mgr.Ev_released { owner; mode; _ } ->
                    List.mem_assoc mode (holder_modes st owner)
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Lock_mgr.Ev_released { owner; mode; _ } -> drop_holding st owner mode
            | _ -> st);
      ];
    d_invariants = [];
    (* Leftover holdings at end of execution are legitimate (the workload may
       stop with transactions parked), so every state accepts. *)
    d_accepting = (fun _ -> true);
  }
