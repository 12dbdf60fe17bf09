(** Aligned plain-text tables for experiment output.

    Every experiment harness prints its results through this module so that
    bench output has one consistent, diff-able shape.  Cells are typed: each
    carries the raw value it was built from next to the text it prints, so
    the same table also yields machine-readable rows ({!rows}). *)

type align = Left | Right

type value = Int of int | Float of float | Text of string | Null
(** A cell's raw value; [Null] for cells with nothing to record ("-"). *)

type cell = { value : value; text : string }
(** A raw value and the exact text the table prints for it.  Build one
    directly when no constructor below prints the wanted text. *)

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> cell list -> unit
(** Append a row.  Raises [Invalid_argument] if the arity does not match the
    header. *)

val add_rule : t -> unit
(** Append a horizontal separator row. *)

val add_note : t -> string -> unit
(** Append a line printed after the table body; notes are not rows. *)

val rows : t -> (string * value) list list
(** The data rows in order, each as (header, raw value) pairs in column
    order.  Rules are skipped. *)

val render : t -> string
(** Render to a string (trailing newline included). *)

val print : t -> unit
(** [render] then [print_string]. *)

(** Cell constructors. *)

val text : string -> cell
val none : cell
(** [Null], printed "-". *)

val num : int -> cell
(** Plain digits: "1234567". *)

val int : int -> cell
(** Thousands separators: "1,234,567". *)

val float : ?digits:int -> float -> cell
(** Fixed point, 2 digits by default; nan is {!none}. *)

val pct : float -> cell
(** Fraction -> "42.0%"; nan is {!none}. *)

val ratio : float -> cell
(** "3.10x"; nan is {!none}. *)

val bytes : int -> cell
(** Human-readable byte count ("1.5 KiB"); the value is the byte count. *)
