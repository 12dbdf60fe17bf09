type t = int

let nil = 0
let to_int64 = Int64.of_int
let of_int64 = Int64.to_int
let pp ppf t = if t = nil then Format.pp_print_string ppf "nil" else Format.pp_print_int ppf t
