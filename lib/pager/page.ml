type t = bytes

let header_size = 13
let kind_free = 0

let create ~size =
  if size < 64 then invalid_arg "Page.create: size too small";
  Bytes.make size '\000'

let get_u8 p off = Char.code (Bytes.get p off)
let set_u8 p off v = Bytes.set p off (Char.chr (v land 0xFF))

let get_u16 p off = Bytes.get_uint16_be p off
let set_u16 p off v = Bytes.set_uint16_be p off v

let get_u32 p off = Int32.to_int (Bytes.get_int32_be p off) land 0xFFFFFFFF
let set_u32 p off v = Bytes.set_int32_be p off (Int32.of_int v)

let get_i64 p off = Bytes.get_int64_be p off
let set_i64 p off v = Bytes.set_int64_be p off v

let get_key p off = Int64.to_int (get_i64 p off)
let set_key p off k = set_i64 p off (Int64.of_int k)

let kind p = get_u8 p 0
let set_kind p k = set_u8 p 0 k

let torn_prefix = 5

let checksum p = get_u32 p 1
let set_checksum p v = set_u32 p 1 v

let lsn p = get_i64 p 5
let set_lsn p v = set_i64 p 5 v

(* A checksum over everything past the checksum field — the page LSN
   included.  Covering the LSN is what makes torn writes recoverable: a tear
   that lands only the prefix (kind + checksum) leaves the old (LSN, body)
   pair intact, so the survivor self-describes how far the log had been
   applied to it and redo can resume from exactly there.

   The region is consumed a little-endian 32-bit word at a time (the last
   [(len - torn_prefix) mod 4] bytes one at a time).  Each step xors the
   input into a 32-bit state, multiplies by an odd constant and xors in the
   state shifted right by 15; every one of those is a bijection on 32-bit
   values, so two images that differ in a single word or byte always end in
   different states.  0 is
   mapped to 1 so that a stored checksum of 0 can keep its meaning of "never
   stamped" (virgin pages, images written outside the buffer pool). *)
let mix h w =
  let h = (h lxor w) * 0x01000193 land 0xFFFFFFFF in
  h lxor (h lsr 15)

let body_checksum p =
  let len = Bytes.length p in
  let words_end = torn_prefix + ((len - torn_prefix) land lnot 3) in
  let h = ref 0x811c9dc5 in
  let i = ref torn_prefix in
  while !i < words_end do
    h := mix !h (Int32.to_int (Bytes.get_int32_le p !i) land 0xFFFFFFFF);
    i := !i + 4
  done;
  for j = words_end to len - 1 do
    h := mix !h (Char.code (Bytes.unsafe_get p j))
  done;
  if !h = 0 then 1 else !h

let blit ~src ~src_off ~dst ~dst_off ~len = Bytes.blit src src_off dst dst_off len

let sub p off len = Bytes.sub_string p off len

let fill p off len c = Bytes.fill p off len c

let copy_into ~src ~dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Page.copy_into: size mismatch";
  Bytes.blit src 0 dst 0 (Bytes.length src)

let equal = Bytes.equal
