type t = {
  mutable lk : int;
  mutable unit_id : int option;
  mutable begin_lsn : Wal.Lsn.t;
  mutable last_lsn : Wal.Lsn.t;
  mutable ck : int option;
  mutable floor : Wal.Lsn.t; (* WAL-truncation floor while pass 3 is live *)
  mutable next_id : int;
  id_stride : int;
}

let create ?(first_id = 1) ?(id_stride = 1) () =
  {
    lk = min_int;
    unit_id = None;
    begin_lsn = Wal.Lsn.nil;
    last_lsn = Wal.Lsn.nil;
    ck = None;
    floor = Wal.Lsn.nil;
    next_id = first_id;
    id_stride;
  }

let lk t = t.lk
let set_lk t k = t.lk <- k

let begin_unit t ~unit_id ~begin_lsn =
  t.unit_id <- Some unit_id;
  t.begin_lsn <- begin_lsn;
  t.last_lsn <- begin_lsn

let note_lsn t lsn = t.last_lsn <- lsn

let last_lsn t = t.last_lsn
let in_flight t = t.unit_id

let end_unit t ~largest_key =
  t.unit_id <- None;
  t.begin_lsn <- Wal.Lsn.nil;
  t.last_lsn <- Wal.Lsn.nil;
  if largest_key > t.lk then t.lk <- largest_key

let ck t = t.ck
let set_ck t v = t.ck <- v

(* The floor is volatile (not part of the checkpoint image): restart
   re-derives it from the stable log before its end-of-recovery checkpoint,
   which is the only checkpoint that could otherwise truncate too far. *)
let floor t = t.floor

let lower_floor t lsn =
  if lsn <> Wal.Lsn.nil && (t.floor = Wal.Lsn.nil || lsn < t.floor) then t.floor <- lsn

let clear_floor t = t.floor <- Wal.Lsn.nil

let next_unit_id t =
  let id = t.next_id in
  t.next_id <- id + t.id_stride;
  id

let image t =
  {
    Wal.Record.rt_lk = t.lk;
    rt_unit = t.unit_id;
    rt_begin_lsn = t.begin_lsn;
    rt_last_lsn = t.last_lsn;
    rt_ck = t.ck;
  }

let restore t (img : Wal.Record.reorg_table) =
  t.lk <- img.Wal.Record.rt_lk;
  t.unit_id <- img.rt_unit;
  t.begin_lsn <- img.rt_begin_lsn;
  t.last_lsn <- img.rt_last_lsn;
  t.ck <- img.rt_ck;
  t.next_id <- (match img.rt_unit with Some u -> u + t.id_stride | None -> t.next_id)
