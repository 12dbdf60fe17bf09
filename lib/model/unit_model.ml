(* Model 2: the §5 reorganization-unit lifecycle, as two machines.

   [lifecycle] has one track per (shard, unit id): BEGIN opens the unit
   (normally, or through recovery's completion path), MOVE/MODIFY records
   carry strictly increasing LSNs, the §5.2 give-up flips it into an undoing
   state whose reverse moves are still fenced, and END closes it — after
   which any further event for that unit id is a violation.

   [actor] has one track per (shard, reorganizer actor): at most one open
   unit at a time, and unit ids of freshly begun units strictly ascend (the
   system table's unit-id fence) — recovery-finished foreign units are
   tracked for exclusivity but exempt from the id fence, since they were
   minted by the pre-crash actor. *)

module Prot = Reorg.Prot

type phase = Unstarted | Active | Undoing | Recovering | Ended

type state = { phase : phase; last_lsn : int }

let initial = { phase = Unstarted; last_lsn = 0 }

let phase_to_string = function
  | Unstarted -> "unstarted"
  | Active -> "active"
  | Undoing -> "undoing"
  | Recovering -> "recovering"
  | Ended -> "ended"

let pp_state st = Printf.sprintf "%s lsn=%d" (phase_to_string st.phase) st.last_lsn

let open_phase = function Active | Undoing | Recovering -> true | Unstarted | Ended -> false

let lsn_of = function
  | Prot.Unit_begin { lsn; _ } | Prot.Unit_move { lsn; _ } | Prot.Unit_modify { lsn; _ }
  | Prot.Unit_end { lsn; _ } ->
    Some lsn
  | _ -> None

let fenced st ev = match lsn_of ev with Some l -> l > st.last_lsn | None -> true

let advance st ev =
  match lsn_of ev with Some l -> { st with last_lsn = l } | None -> st

let lifecycle : (state, Obs.Bus.event) Machine.def =
  {
    Machine.d_name = "unit-lifecycle";
    d_initial = initial;
    d_pp_state = pp_state;
    d_pp_event = Prot.to_string;
    d_rules =
      [
        Machine.rule "begin"
          ~applies:(fun _ ev -> match ev with Prot.Unit_begin _ -> true | _ -> false)
          ~guards:
            [
              ("unit-not-already-begun", fun st _ -> st.phase = Unstarted);
              ( "unit-names-its-pages",
                fun _ ev ->
                  match ev with
                  | Prot.Unit_begin { bases; leaves; _ } -> bases <> [] && leaves <> []
                  | _ -> false );
            ]
          ~next:(fun st ev -> advance { st with phase = Active } ev);
        Machine.rule "recover"
          ~applies:(fun _ ev -> match ev with Prot.Unit_recover _ -> true | _ -> false)
          ~guards:[ ("recovery-opens-a-fresh-track", fun st _ -> st.phase = Unstarted) ]
          ~next:(fun st _ -> { st with phase = Recovering });
        Machine.rule "move"
          ~applies:(fun _ ev -> match ev with Prot.Unit_move _ -> true | _ -> false)
          ~guards:
            [
              ("move-inside-open-unit", fun st _ -> open_phase st.phase);
              ("move-lsn-ascends", fun st ev -> fenced st ev);
              ( "move-changes-page",
                fun _ ev ->
                  match ev with Prot.Unit_move { org; dest; _ } -> org <> dest | _ -> false );
            ]
          ~next:advance;
        Machine.rule "modify"
          ~applies:(fun _ ev -> match ev with Prot.Unit_modify _ -> true | _ -> false)
          ~guards:
            [
              ("modify-inside-open-unit", fun st _ -> open_phase st.phase);
              ("modify-lsn-ascends", fun st ev -> fenced st ev);
            ]
          ~next:advance;
        Machine.rule "undo"
          ~applies:(fun _ ev -> match ev with Prot.Unit_undo _ -> true | _ -> false)
          ~guards:[ ("give-up-from-active-unit", fun st _ -> st.phase = Active) ]
          ~next:(fun st _ -> { st with phase = Undoing });
        Machine.rule "end"
          ~applies:(fun _ ev -> match ev with Prot.Unit_end _ -> true | _ -> false)
          ~guards:
            [
              ("end-closes-open-unit", fun st _ -> open_phase st.phase);
              ("end-lsn-ascends", fun st ev -> fenced st ev);
            ]
          ~next:(fun st ev -> advance { st with phase = Ended } ev);
      ];
    d_invariants = [];
    (* A unit track, once it exists, must reach END: a BEGIN left open at the
       end of a (non-crashed) execution is exactly the §5.1 invariant the
       torture harness also checks in the stable log. *)
    d_accepting = (fun st -> st.phase = Ended);
  }

(* ------------------------------------------------------------------ *)

type actor_state = { active_unit : int option; last_begun : int }

let actor_initial = { active_unit = None; last_begun = 0 }

let pp_actor st =
  Printf.sprintf "active=%s last_begun=%d"
    (match st.active_unit with Some u -> string_of_int u | None -> "-")
    st.last_begun

let unit_of = function
  | Prot.Unit_begin { unit_id; _ }
  | Prot.Unit_move { unit_id; _ }
  | Prot.Unit_modify { unit_id; _ }
  | Prot.Unit_undo { unit_id; _ }
  | Prot.Unit_end { unit_id; _ }
  | Prot.Unit_recover { unit_id; _ } ->
    Some unit_id
  | _ -> None

let on_current st ev = match (st.active_unit, unit_of ev) with Some a, Some u -> a = u | _ -> false

let actor : (actor_state, Obs.Bus.event) Machine.def =
  {
    Machine.d_name = "unit-actor";
    d_initial = actor_initial;
    d_pp_state = pp_actor;
    d_pp_event = Prot.to_string;
    d_rules =
      [
        Machine.rule "begin"
          ~applies:(fun _ ev -> match ev with Prot.Unit_begin _ -> true | _ -> false)
          ~guards:
            [
              ("one-unit-at-a-time", fun st _ -> st.active_unit = None);
              ( "unit-id-fence-ascends",
                fun st ev ->
                  match ev with
                  | Prot.Unit_begin { unit_id; _ } -> unit_id > st.last_begun
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Prot.Unit_begin { unit_id; _ } ->
              { active_unit = Some unit_id; last_begun = unit_id }
            | _ -> st);
        Machine.rule "recover"
          ~applies:(fun _ ev -> match ev with Prot.Unit_recover _ -> true | _ -> false)
          ~guards:[ ("one-unit-at-a-time", fun st _ -> st.active_unit = None) ]
          ~next:(fun st ev ->
            match ev with
            | Prot.Unit_recover { unit_id; _ } -> { st with active_unit = Some unit_id }
            | _ -> st);
        Machine.rule "work"
          ~applies:(fun _ ev ->
            match ev with
            | Prot.Unit_move _ | Prot.Unit_modify _ | Prot.Unit_undo _ -> true
            | _ -> false)
          ~guards:[ ("work-targets-the-open-unit", on_current) ]
          ~next:(fun st _ -> st);
        Machine.rule "end"
          ~applies:(fun _ ev -> match ev with Prot.Unit_end _ -> true | _ -> false)
          ~guards:[ ("end-targets-the-open-unit", on_current) ]
          ~next:(fun st _ -> { st with active_unit = None });
      ];
    d_invariants = [];
    d_accepting = (fun st -> st.active_unit = None);
  }
