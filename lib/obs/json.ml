(* Minimal hand-rolled JSON emission.  The observability subsystem must not
   pull in a JSON dependency, and everything it writes (Chrome traces,
   registry dumps) is generated, never parsed, so a Buffer-based emitter is
   all that is needed.  Output is deterministic: field order is the call
   order, floats print with a fixed format. *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let int buf n = Buffer.add_string buf (string_of_int n)

(* JSON has no NaN/Infinity literals; consumers get [null] for anything
   non-finite.  Finite values must round-trip: try the shortest of %.15g /
   %.16g and fall back to %.17g (always exact for IEEE doubles).  OCaml's
   Printf is locale-independent — the decimal point is always '.'. *)
let float buf x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | FP_zero | FP_subnormal | FP_normal ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else
      let rec shortest p =
        if p > 17 then Printf.sprintf "%.17g" x
        else
          let s = Printf.sprintf "%.*g" p x in
          if float_of_string s = x then s else shortest (p + 1)
      in
      Buffer.add_string buf (shortest 15)

(* [obj buf [ ("k", fun buf -> ...) ]] — fields emitted in list order. *)
let obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char buf ',';
      string buf k;
      Buffer.add_char buf ':';
      emit buf)
    fields;
  Buffer.add_char buf '}'

let arr buf emits =
  Buffer.add_char buf '[';
  List.iteri
    (fun i emit ->
      if i > 0 then Buffer.add_char buf ',';
      emit buf)
    emits;
  Buffer.add_char buf ']'

(* A results table's data rows: one header-keyed object per row, each cell
   its raw value ([Null] cells, e.g. a nan ratio, become [null]). *)
let table_rows buf table =
  let value (v : Util.Table.value) buf =
    match v with
    | Int n -> int buf n
    | Float x -> float buf x
    | Text s -> string buf s
    | Null -> Buffer.add_string buf "null"
  in
  arr buf
    (List.map
       (fun row buf -> obj buf (List.map (fun (h, v) -> (h, value v)) row))
       (Util.Table.rows table))
