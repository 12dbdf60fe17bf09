(* Model 6: the optimistic read path (DESIGN.md §11).

   One track per shard.  The access layer emits [Olc_read] for every
   {e committed} optimistic point lookup; the checker's handler turns it
   into a {!read} whose [valid] is computed in the same atomic scheduler
   step: "does the optimistic result equal a fresh root-to-leaf descent's
   answer right now".  The safety
   property is simply that a committed optimistic read is never wrong:
   version validation plus the active-unit fallback must have filtered every
   read that raced a record move.  The {!Btree.Olc.test_skip_bumps} mutation
   breaks exactly this guard. *)

type read = { leaf : int; key : int; valid : bool }

let pp_read r = Printf.sprintf "Olc_read{leaf=%d key=%d valid=%b}" r.leaf r.key r.valid

type state = { reads : int }

let initial = { reads = 0 }
let pp_state st = Printf.sprintf "reads=%d" st.reads

let def : (state, read) Machine.def =
  {
    Machine.d_name = "olc-read";
    d_initial = initial;
    d_pp_state = pp_state;
    d_pp_event = pp_read;
    d_rules =
      [
        Machine.rule "read"
          ~applies:(fun _ _ -> true)
          ~guards:[ ("optimistic-read-matches-oracle", fun _ r -> r.valid) ]
          ~next:(fun st _ -> { reads = st.reads + 1 });
      ];
    d_invariants = [];
    (* Any number of reads (including none) is a fine place to stop. *)
    d_accepting = (fun _ -> true);
  }
