type t = {
  units : Obs.Counter.t;
  in_place_units : Obs.Counter.t;
  new_place_units : Obs.Counter.t;
  swap_units : Obs.Counter.t;
  move_units : Obs.Counter.t;
  pages_compacted : Obs.Counter.t;
  records_moved : Obs.Counter.t;
  unit_retries : Obs.Counter.t;
  units_undone : Obs.Counter.t;
  base_pages_scanned : Obs.Counter.t;
  side_entries : Obs.Counter.t;
  catchup_batches : Obs.Counter.t;
  stable_points : Obs.Counter.t;
  forced_aborts : Obs.Counter.t;
  log_bytes : Obs.Counter.t;
  log_records : Obs.Counter.t;
}

let all t =
  [
    t.units;
    t.in_place_units;
    t.new_place_units;
    t.swap_units;
    t.move_units;
    t.pages_compacted;
    t.records_moved;
    t.unit_retries;
    t.units_undone;
    t.base_pages_scanned;
    t.side_entries;
    t.catchup_batches;
    t.stable_points;
    t.forced_aborts;
    t.log_bytes;
    t.log_records;
  ]

let create ?registry () =
  let t =
    {
      units = Obs.Counter.make "core.units";
      in_place_units = Obs.Counter.make "core.in_place_units";
      new_place_units = Obs.Counter.make "core.new_place_units";
      swap_units = Obs.Counter.make "core.swap_units";
      move_units = Obs.Counter.make "core.move_units";
      pages_compacted = Obs.Counter.make "core.pages_compacted";
      records_moved = Obs.Counter.make "core.records_moved";
      unit_retries = Obs.Counter.make "core.unit_retries";
      units_undone = Obs.Counter.make "core.units_undone";
      base_pages_scanned = Obs.Counter.make "core.base_pages_scanned";
      side_entries = Obs.Counter.make "core.side_entries";
      catchup_batches = Obs.Counter.make "core.catchup_batches";
      stable_points = Obs.Counter.make "core.stable_points";
      forced_aborts = Obs.Counter.make "core.forced_aborts";
      log_bytes = Obs.Counter.make "core.log_bytes";
      log_records = Obs.Counter.make "core.log_records";
    }
  in
  (match registry with
  | Some reg -> List.iter (Obs.Registry.attach_counter reg) (all t)
  | None -> ());
  t

let register_obs t reg = List.iter (Obs.Registry.attach_counter reg) (all t)

(* Read accessors share the field names: [m.units] inside this module is the
   counter, [Metrics.units m] outside is its value. *)
let units t = Obs.Counter.get t.units
let in_place_units t = Obs.Counter.get t.in_place_units
let new_place_units t = Obs.Counter.get t.new_place_units
let swap_units t = Obs.Counter.get t.swap_units
let move_units t = Obs.Counter.get t.move_units
let pages_compacted t = Obs.Counter.get t.pages_compacted
let records_moved t = Obs.Counter.get t.records_moved
let unit_retries t = Obs.Counter.get t.unit_retries
let units_undone t = Obs.Counter.get t.units_undone
let base_pages_scanned t = Obs.Counter.get t.base_pages_scanned
let side_entries t = Obs.Counter.get t.side_entries
let catchup_batches t = Obs.Counter.get t.catchup_batches
let stable_points t = Obs.Counter.get t.stable_points
let forced_aborts t = Obs.Counter.get t.forced_aborts
let log_bytes t = Obs.Counter.get t.log_bytes
let log_records t = Obs.Counter.get t.log_records

let pp ppf t =
  Format.fprintf ppf
    "units=%d (in-place=%d new-place=%d) swaps=%d moves=%d compacted=%d records=%d retries=%d \
     undone=%d bases=%d side=%d/%d batches stable=%d aborts=%d log=%dB/%d recs"
    (units t) (in_place_units t) (new_place_units t) (swap_units t) (move_units t)
    (pages_compacted t) (records_moved t) (unit_retries t) (units_undone t)
    (base_pages_scanned t) (side_entries t) (catchup_batches t) (stable_points t)
    (forced_aborts t) (log_bytes t) (log_records t)
