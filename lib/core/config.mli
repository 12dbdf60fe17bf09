(** Reorganization configuration. *)

type heuristic =
  | Paper_heuristic
      (** §6.1: first empty page [e] with [L < e < C] — after the largest
          finished page, before the page being compacted. *)
  | First_free  (** naive baseline: smallest free page anywhere in the zone *)
  | No_new_place  (** always compact in place (forces pass 2 to swap) *)

type t = {
  f2 : float;  (** target leaf fill factor after reorganization *)
  careful_writing : bool;
      (** when true, MOVE records log keys only and write-order dependencies
          + deferred deallocation protect the data (§5) *)
  swap_pass : bool;  (** run pass 2 (it is optional in the paper) *)
  shrink_pass : bool;  (** run pass 3 *)
  heuristic : heuristic;
  stable_every : int;  (** pass 3: force-write a stable point every N base pages *)
  scan_pacing : int;
      (** ticks the pass-3 scan pauses per base page — models the I/O cost of
          reading a base page and its children; larger values mean more
          concurrent update traffic lands behind the cursor *)
  switch_wait : int;
      (** ticks the switch waits for the old tree to drain before forcing
          old-tree transactions to abort (§7.4's time limit) *)
  io_pacing : int;
      (** ticks slept per reorganization unit, modelling the unit's page
          I/O; with 0 (default) units are CPU-bound in simulated time.
          Non-zero pacing is what makes parallel workers overlap usefully. *)
  lambda_switch : bool;
      (** §7.4's λ-tree variant: the switch releases the side file
          immediately after flipping the root (an instant-duration X), never
          forces old-tree transactions to abort, and defers the deallocation
          of the old upper levels until they drain on their own.  Post-switch
          base-page updates go straight into the new tree; searches stay
          correct because leaf-level side pointers are chased B-link-style. *)
  unit_pages : int;
      (** §6: how many new pages one lock envelope constructs before the base
          page's R lock is released.  1 is the paper's choice ("we choose to
          construct one new leaf page at a time"); larger values hold locks
          longer and block more user transactions — the trade-off the paper
          calls out. *)
  catchup_batch : int;
      (** pass 3: side-file entries applied per scheduler yield during
          catch-up.  Larger batches drain the backlog with less scheduling
          overhead but give concurrent updaters fewer chances to slip new
          entries in mid-drain (they only matter before the switch holds X
          on the side file). *)
  olc : bool;
      (** optimistic lock coupling for the read path: point lookups and
          range scans descend lock-free, validating per-node version
          counters ({!Btree.Olc}), and fall back to the paper's R/RX/RS
          locked protocol on conflict, on a held lock or while a
          reorganization unit is active.  Writers and the reorganizer keep
          Table-1 semantics either way.  Default
          {!Btree.Access.olc_default} ([true]). *)
}

val default : t

val paper : t
(** [default] with the paper's locked reader protocol ([olc = false]): the
    configuration the paper-reproduction experiments measure. *)

val pp : Format.formatter -> t -> unit
