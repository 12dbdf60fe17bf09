(* The hash is inlined here rather than taken from [Hashtbl.Make (Int)]:
   [Int.hash] is the C [caml_hash], a foreign call per lookup on tables that
   sit on the pager and lock-manager hot paths.  Keys are dense small ints
   (page ids, transaction ids), so the identity already spreads them over
   the buckets. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x land max_int
end)
