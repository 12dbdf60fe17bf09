type align = Left | Right

type value = Int of int | Float of float | Text of string | Null

type cell = { value : value; text : string }

type row = Cells of cell list | Rule

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
  mutable notes : string list; (* reversed *)
}

let create ?title columns =
  {
    title;
    headers = List.map fst columns;
    aligns = List.map snd columns;
    rows = [];
    notes = [];
  }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let add_note t line = t.notes <- line :: t.notes

let rows t =
  List.filter_map
    (function
      | Rule -> None
      | Cells cs -> Some (List.map2 (fun h c -> (h, c.value)) t.headers cs))
    (List.rev t.rows)

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row ->
        match row with
        | Rule -> acc
        | Cells cs -> List.map2 (fun w c -> max w (String.length c.text)) acc cs)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 256 in
  let line ch =
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "-+-";
        Buffer.add_string buf (String.make w ch))
      widths;
    Buffer.add_char buf '\n'
  in
  let emit cells aligns =
    List.iteri
      (fun i (c, (w, a)) ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad a w c))
      (List.map2 (fun c wa -> (c, wa)) cells (List.combine widths aligns));
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  emit t.headers (List.map (fun _ -> Left) t.headers);
  line '-';
  List.iter
    (fun row ->
      match row with
      | Rule -> line '-'
      | Cells cs -> emit (List.map (fun c -> c.text) cs) t.aligns)
    rows;
  List.iter
    (fun note ->
      Buffer.add_string buf note;
      Buffer.add_char buf '\n')
    (List.rev t.notes);
  Buffer.contents buf

let print t = print_string (render t)

let text s = { value = Text s; text = s }
let none = { value = Null; text = "-" }
let num n = { value = Int n; text = string_of_int n }

let int n =
  (* Thousands separators make big I/O and byte counts scannable. *)
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  { value = Int n; text = Buffer.contents buf }

(* NaN (an undefined ratio) has no value to record: it prints "-". *)
let real text x = if Float.is_nan x then none else { value = Float x; text }
let float ?(digits = 2) x = real (Printf.sprintf "%.*f" digits x) x
let pct x = real (Printf.sprintf "%.1f%%" (100.0 *. x)) x
let ratio x = real (Printf.sprintf "%.2fx" x) x

let bytes n =
  let text =
    if n < 1024 then Printf.sprintf "%d B" n
    else if n < 1024 * 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
    else Printf.sprintf "%.1f MiB" (float_of_int n /. (1024.0 *. 1024.0))
  in
  { value = Int n; text }
