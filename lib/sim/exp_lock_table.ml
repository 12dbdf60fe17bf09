(* Experiment T1 — reproduce Table 1, the lock compatibility matrix.

   The implementation's compatibility function is printed in the paper's
   format and every Yes/No cell is checked against the paper's table
   (blank cells are mode pairs that never contend for one resource). *)

module Mode = Lockmgr.Mode

let run () =
  let requested = Mode.all in
  let table =
    Util.Table.create
      ~title:
        "Table 1 — lock compatibility (rows: granted, columns: requested)\n\
         cells: Yes/No as implemented; '.' where the paper leaves the cell blank"
      (("granted", Util.Table.Left)
      :: List.map (fun m -> (Mode.to_string m, Util.Table.Right)) requested)
  in
  let mismatches = ref 0 in
  List.iter
    (fun g ->
      let cells =
        List.map
          (fun r ->
            let impl = Mode.compat g r in
            match Mode.paper_cell ~granted:g ~requested:r with
            | `Blank -> if impl then "(yes)" else "."
            | `Yes ->
              if not impl then incr mismatches;
              if impl then "Yes" else "MISMATCH"
            | `No ->
              if impl then incr mismatches;
              if impl then "MISMATCH" else "No")
          requested
      in
      Util.Table.add_row table (List.map Util.Table.text (Mode.to_string g :: cells)))
    Mode.all;
  Util.Table.add_rule table;
  Util.Table.add_row table
    (List.map Util.Table.text
       (Printf.sprintf "mismatches vs paper: %d" !mismatches :: List.map (fun _ -> "") requested));
  let ok = !mismatches = 0 in
  Util.Table.add_note table (Printf.sprintf "Table 1 reproduced exactly: %b" ok);
  (table, ok)
