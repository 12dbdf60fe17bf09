(** The full three-pass on-line reorganization (Figure 1 / Figure 2).

    Pass 1 compacts the leaves (in-place + copying-switching), pass 2
    optionally swaps/moves them into contiguous key order, pass 3 rebuilds
    the upper levels and switches.  A checkpoint (carrying the §5 system
    table) is written between passes. *)

type report = {
  pass1_units : int;
  swaps : int;
  moves : int;
  switched : bool;
  height_before : int;
  height_after : int;
  leaves_before : int;
  leaves_after : int;
  fill_before : float;
  fill_after : float;
  out_of_order_after_pass1 : int;
      (** leaves not in disk order when pass 2 started — what Find-Free-Space
          minimizes *)
}

val empty_report : report

val run : ?pass1_workers:int -> Ctx.t -> report
(** Must run inside a scheduler process.  [pass1_workers > 1] runs the
    compaction pass with parallel range-partitioned workers (the paper's
    stated future work); passes 2 and 3 stay sequential. *)

val pp_report : Format.formatter -> report -> unit
