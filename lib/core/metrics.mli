(** Counters collected by the reorganizer — the quantities the paper argues
    about: units run, in-place vs new-place choices, swaps vs moves in pass 2,
    records moved, log bytes, lock give-ups and retries.

    Each field is an {!Obs.Counter.t} named [core.<field>], so the whole
    record can live in an {!Obs.Registry.t} and show up in [--metrics] dumps
    alongside the scheduler / lock / pager / WAL gauges.  The like-named
    accessor functions return the current values as plain ints. *)

type t = {
  units : Obs.Counter.t;  (** reorganization units completed *)
  in_place_units : Obs.Counter.t;
  new_place_units : Obs.Counter.t;  (** copying-switching units *)
  swap_units : Obs.Counter.t;  (** pass-2 swaps *)
  move_units : Obs.Counter.t;  (** pass-2 moves to empty pages *)
  pages_compacted : Obs.Counter.t;  (** org leaves emptied by pass 1 *)
  records_moved : Obs.Counter.t;
  unit_retries : Obs.Counter.t;  (** units re-run after a deadlock give-up *)
  units_undone : Obs.Counter.t;  (** §5.2 undo-at-deadlock events *)
  base_pages_scanned : Obs.Counter.t;  (** pass 3 *)
  side_entries : Obs.Counter.t;  (** side-file entries applied during catch-up *)
  catchup_batches : Obs.Counter.t;  (** batched catch-up rounds (one yield each) *)
  stable_points : Obs.Counter.t;
  forced_aborts : Obs.Counter.t;  (** old-tree transactions aborted at switch *)
  log_bytes : Obs.Counter.t;  (** log bytes attributed to reorganization *)
  log_records : Obs.Counter.t;
}

val create : ?registry:Obs.Registry.t -> unit -> t
(** Fresh zeroed counters, attached to [registry] when given. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Attach every counter to the registry (idempotent by name). *)

(** {2 Read accessors} *)

val units : t -> int
val in_place_units : t -> int
val new_place_units : t -> int
val swap_units : t -> int
val move_units : t -> int
val pages_compacted : t -> int
val records_moved : t -> int
val unit_retries : t -> int
val units_undone : t -> int
val base_pages_scanned : t -> int
val side_entries : t -> int
val catchup_batches : t -> int
val stable_points : t -> int
val forced_aborts : t -> int
val log_bytes : t -> int
val log_records : t -> int

val pp : Format.formatter -> t -> unit
