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

   The region is read as little-endian 64-bit words dealt round-robin to four
   independent lanes, so the four multiply chains overlap instead of running
   one after another; the last [(len - torn_prefix) mod 8] bytes form one
   more little-endian word.  A lane step xors the word into the 64-bit lane
   state, multiplies by an odd constant and xors in the state shifted right
   by 29: a bijection on the state for a fixed word, and on the word for a
   fixed state.  The lanes and the tail word are then chained through the
   same step into one 64-bit value, bijective in each of them, so a change
   confined to one word always changes that value.  Its two 32-bit halves
   are xored into the stored 32 bits; that fold is where the guarantee
   ends (see page.mli).  0 is mapped to 1 so that a stored checksum of 0 can
   keep its meaning of "never stamped" (virgin pages, images written outside
   the buffer pool). *)
let lane_mul = 0x9E3779B97F4A7C15L

let[@inline] lane h w =
  let h = Int64.mul (Int64.logxor h w) lane_mul in
  Int64.logxor h (Int64.shift_right_logical h 29)

let body_checksum p =
  let len = Bytes.length p in
  let rounds_end = torn_prefix + ((len - torn_prefix) land lnot 31) in
  let words_end = torn_prefix + ((len - torn_prefix) land lnot 7) in
  let a = ref 1L and b = ref 2L and c = ref 3L and d = ref 4L in
  let i = ref torn_prefix in
  while !i < rounds_end do
    let k = !i in
    a := lane !a (Bytes.get_int64_le p k);
    b := lane !b (Bytes.get_int64_le p (k + 8));
    c := lane !c (Bytes.get_int64_le p (k + 16));
    d := lane !d (Bytes.get_int64_le p (k + 24));
    i := k + 32
  done;
  (* Up to three whole words are left over; they go to the lanes in turn. *)
  let k = !i in
  if k < words_end then a := lane !a (Bytes.get_int64_le p k);
  if k + 8 < words_end then b := lane !b (Bytes.get_int64_le p (k + 8));
  if k + 16 < words_end then c := lane !c (Bytes.get_int64_le p (k + 16));
  let tail = ref 0 in
  for j = len - 1 downto words_end do
    tail := (!tail lsl 8) lor Char.code (Bytes.unsafe_get p j)
  done;
  let s = lane (lane (lane (lane (lane 0L !a) !b) !c) !d) (Int64.of_int !tail) in
  let h = Int64.to_int (Int64.logxor s (Int64.shift_right_logical s 32)) land 0xFFFFFFFF in
  if h = 0 then 1 else h

let blit ~src ~src_off ~dst ~dst_off ~len = Bytes.blit src src_off dst dst_off len

let sub p off len = Bytes.sub_string p off len

let fill p off len c = Bytes.fill p off len c

let copy_into ~src ~dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Page.copy_into: size mismatch";
  Bytes.blit src 0 dst 0 (Bytes.length src)

let equal = Bytes.equal
