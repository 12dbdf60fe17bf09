type t =
  | Tree of int
  | Page of int
  | Rec of int
  | Side_file
  | Side_key of int

(* One arm per constructor: the lock table hashes and compares a resource
   on every lock call, and the polymorphic [=] / [Hashtbl.hash] are C calls
   that walk the block. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | Tree x, Tree y | Page x, Page y | Rec x, Rec y | Side_key x, Side_key y -> x = y
  | Side_file, Side_file -> true
  | (Tree _ | Page _ | Rec _ | Side_file | Side_key _), _ -> false

(* The payload times an odd constant keeps one constructor's dense ids
   spread over the low (bucket-selecting) bits; the tag separates the
   constructors. *)
let hash = function
  | Tree n -> (n * 5) land max_int
  | Page p -> ((p * 5) + 1) land max_int
  | Rec k -> ((k * 5) + 2) land max_int
  | Side_file -> 3
  | Side_key k -> ((k * 5) + 4) land max_int

(* The order polymorphic [compare] gives: the constant constructor first,
   then constructor by constructor, then by payload. *)
let rank = function Side_file -> 0 | Tree _ -> 1 | Page _ -> 2 | Rec _ -> 3 | Side_key _ -> 4

let compare (a : t) (b : t) =
  match (a, b) with
  | Tree x, Tree y | Page x, Page y | Rec x, Rec y | Side_key x, Side_key y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let to_string = function
  | Tree n -> Printf.sprintf "tree:%d" n
  | Page p -> Printf.sprintf "page:%d" p
  | Rec k -> Printf.sprintf "rec:%d" k
  | Side_file -> "side-file"
  | Side_key k -> Printf.sprintf "side-key:%d" k

let pp ppf t = Format.pp_print_string ppf (to_string t)
