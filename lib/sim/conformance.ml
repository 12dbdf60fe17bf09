(* The model-conformance runner: replays the deterministic workloads and the
   torture crash sweeps with a {!Model.Checker} attached, plus the two
   mutation self-tests that prove the checker actually catches a broken
   Table-1 cell and a broken §7.1 switch guard.  Everything is deterministic
   from the seeds. *)

module Mode = Lockmgr.Mode
module Resource = Lockmgr.Resource
module Lock_mgr = Lockmgr.Lock_mgr

type summary = {
  label : string;
  events : int;
  tracks : int;
  violations : Model.Machine.violation list;
}

let ok s = s.violations = []

let to_string s =
  match s.violations with
  | [] -> Printf.sprintf "%-14s ok      %6d events, %4d tracks" s.label s.events s.tracks
  | vs ->
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%-14s FAILED  %6d events, %4d tracks, %d violation(s)\n" s.label
         s.events s.tracks (List.length vs));
    List.iter
      (fun v ->
        Buffer.add_string b (Model.Machine.violation_to_string v);
        Buffer.add_char b '\n')
      vs;
    Buffer.contents b

let summarize label c =
  {
    label;
    events = Model.Checker.events c;
    tracks = Model.Checker.tracks c;
    violations = Model.Checker.violations c;
  }

(* A mixed seeded workload: reorganization of an aged tree with concurrent
   updaters — the deadlock/give-up machinery fires, the side file fills, the
   switch drains. *)
let workload ?(olc = false) ~seed () =
  let c = Model.Checker.create () in
  let db, _ = Scenario.aged ~page_size:512 ~leaf_pages:512 ~seed ~n:400 ~f1:0.3 () in
  ignore
    (Scenario.run_reorg
       { Scenario.default with checker = Some c; config = { Reorg.Config.default with olc };
         users = 4; user_mix = Workload.Mix.update_heavy; user_ops = 400; seed }
       db);
  Model.Checker.finalize c;
  summarize (Printf.sprintf "workload-%d%s" seed (if olc then "+olc" else "")) c

(* A crash sweep with the checker attached; a harness [Failed] (data loss
   rather than a protocol violation) is folded into the summary too. *)
let sweep label run =
  let c = Model.Checker.create () in
  match run c with
  | (_ : Torture.report) -> summarize label c
  | exception Torture.Failed msg ->
    let s = summarize label c in
    if s.violations <> [] then s
    else
      {
        s with
        violations =
          [
            {
              Model.Machine.v_machine = "torture";
              v_track = label;
              v_state = "";
              v_event = "";
              v_reason = msg;
              v_history = [];
            };
          ];
      }

(* The crash sweeps: every [stride]-th write/force boundary of the seeded
   torture workloads, each crash replayed through recovery with the models
   watching both sides of the boundary. *)
let torture ?(n = 120) ?(leaf_pages = 128) ?(pipeline = false) ?(olc = false) ~seed ~stride
    ~users () =
  let label =
    Printf.sprintf "torture-%d/%d%s%s" seed stride
      (if pipeline then "+pipe" else "")
      (if olc then "+olc" else "")
  in
  sweep label (fun c ->
      Torture.run ~checker:c
        ~config:{ Reorg.Config.default with olc }
        ~n ~leaf_pages ~pipeline ~seed ~stride ~users ())

let shard_torture ?(n = 120) ~seed ~stride () =
  sweep (Printf.sprintf "shard-%d/%d" seed stride) (fun c ->
      Torture.run_sharded ~checker:c ~n ~seed ~stride ())

(* ---- mutation self-tests: each flips one protocol cell under a test flag
   and must make the checker report a violation. ---- *)

(* Break one Table-1 cell (RX/X compatible) and drive the lock manager into
   granting through it: the model, reading its own literal matrix, must
   object. *)
let mutate_table1 () =
  let c = Model.Checker.create () in
  let db = Db.create () in
  Model.Checker.attach c ~shard:0 db;
  let lm = db.Db.locks in
  Mode.test_break_compat := Some (Mode.RX, Mode.X);
  Fun.protect
    ~finally:(fun () -> Mode.test_break_compat := None)
    (fun () ->
      ignore (Lock_mgr.try_acquire lm ~owner:1 (Resource.Page 7) Mode.RX : Lock_mgr.outcome);
      ignore (Lock_mgr.try_acquire lm ~owner:2 (Resource.Page 7) Mode.X : Lock_mgr.outcome));
  Model.Checker.finalize c;
  summarize "mutate-table1" c

(* Break the §7.1 Get_Current contract (CK not advanced before the base's S
   lock is released) and run a small reorganization: the switch machine's
   scan guard must fire. *)
let mutate_switch () =
  let c = Model.Checker.create () in
  Reorg.Pass3.test_skip_ck_advance := true;
  Fun.protect
    ~finally:(fun () -> Reorg.Pass3.test_skip_ck_advance := false)
    (fun () ->
      let db, _ = Scenario.aged ~page_size:512 ~leaf_pages:256 ~seed:5 ~n:200 ~f1:0.3 () in
      ignore (Scenario.run_reorg { Scenario.default with checker = Some c } db));
  Model.Checker.finalize c;
  summarize "mutate-switch" c

(* Skip the optimistic-read version bumps (DESIGN.md §11) and run read-only
   users against a reorganization that swaps and compacts leaves: an
   uncontended unit executes atomically between two reader yields, so a
   reader whose parked-on leaf had its records exchanged under it commits a
   wrong answer — the olc machine's oracle guard must fire.  The same
   scenario with bumps intact is the clean arm ([workload ~olc:true]). *)
let mutate_olc () =
  let c = Model.Checker.create () in
  Btree.Olc.test_skip_bumps := true;
  Fun.protect
    ~finally:(fun () -> Btree.Olc.test_skip_bumps := false)
    (fun () ->
      (* Only swap units silently re-point a live leaf (moves and compacts
         free the org page, which a reader detects as a kind change), so the
         hit window is narrow: readers must target PRESENT keys
         ([user_key_space = n]) and several seeds are swept — the first
         caught violation proves the point.  Every seed here trips with the
         production bumps removed; one is enough. *)
      let seeds = [ 11; 12; 13; 17; 23 ] in
      List.iter
        (fun seed ->
          if Model.Checker.ok c then begin
            let db, _ =
              Scenario.aged ~page_size:512 ~leaf_pages:512 ~seed ~n:400 ~f1:0.3 ()
            in
            ignore
              (Scenario.run_reorg
                 { Scenario.default with checker = Some c;
                   config = { Reorg.Config.default with olc = true }; users = 6;
                   user_mix = Workload.Mix.read_only; user_ops = 4_000;
                   user_key_space = Some 400; seed }
                 db)
          end)
        seeds);
  Model.Checker.finalize c;
  summarize "mutate-olc" c
