(* Model 3: the §7 switch/drain protocol, one track per shard.

   The track follows pass 3 from the Get_Current scan (CK must strictly
   advance before the base's S lock is released — §7.1), through side-file
   catch-up, the side-X acquisition, the Switch record (backlog must be
   empty, the tree name increments by exactly one, and the switch LSN fences
   above every unit LSN seen on the shard), the non-λ drain's forced aborts,
   and cleanup.  Side-file admissions are checked against the phase: accepts
   only while the old tree is still authoritative and only for keys below
   CK; redirects only once the side file is sealed or λ-switch has moved
   writers to the new tree. *)

module Prot = Reorg.Prot

type phase = Idle | Scanning | Catching_up | Draining_side | Switched | Done

type state = { phase : phase; ck : int; hw_lsn : int }

let initial = { phase = Idle; ck = min_int; hw_lsn = 0 }

let phase_to_string = function
  | Idle -> "idle"
  | Scanning -> "scanning"
  | Catching_up -> "catching-up"
  | Draining_side -> "draining-side"
  | Switched -> "switched"
  | Done -> "done"

let pp_state st =
  Printf.sprintf "%s ck=%s hw_lsn=%d" (phase_to_string st.phase)
    (Prot.key_to_string st.ck) st.hw_lsn

let unit_lsn = function
  | Prot.Unit_begin { lsn; _ } | Prot.Unit_move { lsn; _ } | Prot.Unit_modify { lsn; _ }
  | Prot.Unit_end { lsn; _ } ->
    Some lsn
  | _ -> None

let def : (state, Obs.Bus.event) Machine.def =
  {
    Machine.d_name = "switch-drain";
    d_initial = initial;
    d_pp_state = pp_state;
    d_pp_event = Prot.to_string;
    d_rules =
      [
        (* Unit events only move the LSN high-watermark the Switch record
           must fence above; they are legal in any phase (pass 2 overlaps
           nothing, but recovery re-runs units while pass 3 state is Idle). *)
        Machine.rule "unit-watermark"
          ~applies:(fun _ ev -> match unit_lsn ev with Some _ -> true | None -> false)
          ~next:(fun st ev ->
            match unit_lsn ev with
            | Some l -> { st with hw_lsn = max st.hw_lsn l }
            | None -> st);
        Machine.rule "unit-other"
          ~applies:(fun _ ev ->
            match ev with Prot.Unit_undo _ | Prot.Unit_recover _ -> true | _ -> false)
          ~next:(fun st _ -> st);
        Machine.rule "start"
          ~applies:(fun _ ev -> match ev with Prot.Pass3_start _ -> true | _ -> false)
          ~guards:[ ("pass3-starts-once", fun st _ -> st.phase = Idle) ]
          ~next:(fun st ev ->
            match ev with
            | Prot.Pass3_start { mode = Prot.Finish; ck; _ } ->
              (* Post-crash finish: the scan already completed before the
                 crash; pass 3 resumes at catch-up. *)
              { st with phase = Catching_up; ck }
            | Prot.Pass3_start { ck; _ } -> { st with phase = Scanning; ck }
            | _ -> st);
        Machine.rule "scan-base"
          ~applies:(fun _ ev -> match ev with Prot.Scan_base _ -> true | _ -> false)
          ~guards:
            [
              ("scan-only-while-scanning", fun st _ -> st.phase = Scanning);
              ( "ck-advances-before-s-release",
                (* §7.1: Get_Current must push CK past the base's keys before
                   giving up the S lock, else a crash loses the base. *)
                fun _ ev ->
                  match ev with
                  | Prot.Scan_base { ck_before; ck_after; _ } -> ck_after > ck_before
                  | _ -> false );
              ( "ck-matches-model",
                fun st ev ->
                  match ev with
                  | Prot.Scan_base { ck_before; _ } -> ck_before = st.ck
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Prot.Scan_base { ck_after; _ } -> { st with ck = ck_after }
            | _ -> st);
        Machine.rule "scan-done"
          ~applies:(fun _ ev -> match ev with Prot.Scan_done _ -> true | _ -> false)
          ~guards:
            [
              (* A post-crash Finish run skips the scan but still announces
                 its (vacuous) completion from catch-up. *)
              ( "scan-ends-after-scan-or-finish",
                fun st _ -> st.phase = Scanning || st.phase = Catching_up );
            ]
          ~next:(fun st _ -> { st with phase = Catching_up; ck = max_int });
        Machine.rule "catchup"
          ~applies:(fun _ ev -> match ev with Prot.Catchup _ -> true | _ -> false)
          ~guards:
            [
              (* The final catch-up round runs after the side X is taken. *)
              ( "catchup-after-scan",
                fun st _ -> st.phase = Catching_up || st.phase = Draining_side );
              ( "catchup-applies-something",
                fun _ ev ->
                  match ev with Prot.Catchup { applied; _ } -> applied > 0 | _ -> false );
            ]
          ~next:(fun st _ -> st);
        Machine.rule "side-locked"
          ~applies:(fun _ ev -> match ev with Prot.Side_locked _ -> true | _ -> false)
          ~guards:[ ("side-x-after-catch-up", fun st _ -> st.phase = Catching_up) ]
          ~next:(fun st _ -> { st with phase = Draining_side });
        Machine.rule "switch"
          ~applies:(fun _ ev -> match ev with Prot.Switch_logged _ -> true | _ -> false)
          ~guards:
            [
              ("switch-under-side-x", fun st _ -> st.phase = Draining_side);
              ( "side-file-fully-drained",
                fun _ ev ->
                  match ev with
                  | Prot.Switch_logged { backlog; _ } -> backlog = 0
                  | _ -> false );
              ( "tree-name-increments",
                fun _ ev ->
                  match ev with
                  | Prot.Switch_logged { old_name; new_name; _ } -> new_name = old_name + 1
                  | _ -> false );
              ( "switch-lsn-fences-units",
                fun st ev ->
                  match ev with
                  | Prot.Switch_logged { lsn; _ } -> lsn > st.hw_lsn
                  | _ -> false );
              ( "roots-differ",
                fun _ ev ->
                  match ev with
                  | Prot.Switch_logged { old_root; new_root; _ } -> old_root <> new_root
                  | _ -> false );
            ]
          ~next:(fun st ev ->
            match ev with
            | Prot.Switch_logged { lsn; _ } -> { st with phase = Switched; hw_lsn = lsn }
            | _ -> st);
        Machine.rule "forced-abort"
          ~applies:(fun _ ev -> match ev with Prot.Forced_abort _ -> true | _ -> false)
          ~guards:
            [
              ("drain-aborts-after-switch", fun st _ -> st.phase = Switched);
              ( "lambda-switch-never-aborts",
                (* §7.4: with λ-switch, stragglers are redirected, not shot. *)
                fun _ ev ->
                  match ev with
                  | Prot.Forced_abort { lambda; _ } -> not lambda
                  | _ -> false );
            ]
          ~next:(fun st _ -> st);
        Machine.rule "cleanup"
          ~applies:(fun _ ev -> match ev with Prot.Switch_cleanup _ -> true | _ -> false)
          ~guards:[ ("cleanup-after-switch", fun st _ -> st.phase = Switched) ]
          ~next:(fun st _ -> { st with phase = Done });
        Machine.rule "side-accept"
          ~applies:(fun _ ev -> match ev with Prot.Side_accept _ -> true | _ -> false)
          ~guards:
            [
              ( "accept-only-before-side-x",
                fun st _ -> st.phase = Scanning || st.phase = Catching_up );
              ( "accept-only-behind-ck",
                (* A key at or past CK still lives on the old tree's unscanned
                   suffix, so the updater must go direct — an accepted op
                   there would be applied twice or lost. *)
                fun st ev ->
                  match ev with Prot.Side_accept { key; _ } -> key < st.ck | _ -> false );
            ]
          ~next:(fun st _ -> st);
        Machine.rule "side-redirect"
          ~applies:(fun _ ev -> match ev with Prot.Side_redirect _ -> true | _ -> false)
          ~guards:
            [
              ( "redirect-only-after-seal",
                fun st _ ->
                  st.phase = Draining_side || st.phase = Switched || st.phase = Done );
            ]
          ~next:(fun st _ -> st);
      ];
    (* CK monotonicity is enforced structurally: the only rule that changes
       [ck] guards [ck_after > ck_before = st.ck]. *)
    d_invariants = [];
    (* A shard that never started pass 3 (Idle) is fine; one that did must
       have finished cleanup. *)
    d_accepting = (fun st -> st.phase = Idle || st.phase = Done);
  }
