(** Execution of one reorganization unit (§4–§5).

    A unit is the paper's atom of leaf reorganization: compacting a group of
    leaves under one base page (in place or into a chosen empty page),
    swapping two leaves, or moving one leaf to an empty page.

    The executor follows §4.1.1 exactly:
    - IX on the tree lock is assumed held by the pass driver;
    - R locks on the base page(s), then RX locks on every leaf of the unit,
      then X locks on side-pointer neighbours — {e all before} any record
      moves;
    - the BEGIN log record is written only after all leaf locks are held;
    - records are moved (logged as MOVE records — keys only under careful
      writing, with write-order dependencies and deferred deallocation);
    - the base lock is upgraded R -> X for the short MODIFY step;
    - END completes the unit and advances LK in the system table.

    If the reorganizer is chosen as a deadlock victim before anything moved,
    it releases everything and the unit is retried.  If the victim moment is
    the R->X upgrade (records already moved), §5.2's undo runs: reverse MOVE
    records are logged, the records go back, and the unit ends as a no-op.

    Each unit type is one ordered step list (BEGIN, format-dest, MOVE*, base
    R->X upgrade, header and neighbour rewires, dealloc, one MODIFY per
    base, END) and one interpreter runs it: live from the BEGIN step, after
    a crash from the first step whose record is not stable ({!finish}), and
    backwards for the §5.2 give-up. *)

type plan =
  | Compact of {
      base : int;
      leaves : int list;  (** ≥ 1 children of [base], consecutive, in key order *)
      dest : [ `In_place of int | `New_place of int ];
    }
  | Swap of { a_base : int; a : int; b_base : int; b : int }
  | Move of { base : int; org : int; dest : int }

type outcome =
  | Done of int  (** largest key processed *)
  | Stale  (** the tree changed between planning and locking; re-plan *)
  | Gave_up  (** deadlock-victim retries exhausted, or undo-at-deadlock ran *)

val execute : Ctx.t -> plan -> outcome

val pp_plan : Format.formatter -> plan -> unit

(** {1 Forward recovery}

    {!Recovery} reads an interrupted unit's plan back from its log records
    and the recovered pages, builds the same step list the live unit ran,
    and finishes it. *)

type step

type pair = {
  a : int;
  b : int;
  pa : Pager.Page.t;
  pb : Pager.Page.t;
  recs_a : Btree.Leaf.record list;  (** [a]'s records before the exchange *)
  recs_b : Btree.Leaf.record list;
}

type group = {
  rtype : Wal.Record.reorg_type;  (** [Compact] or [Move] *)
  base : int;
  leaves : int list;
  dest : int;
  fresh : bool;  (** [dest] is not one of [leaves] *)
  entries : Btree.Inode.entry list;  (** the leaves' entries in [base] *)
  low_mark : int;  (** the group's low mark, [dest]'s after the unit *)
  prev_n : int option;  (** the group's chain neighbours *)
  next_n : int option;
  contents : (int * Btree.Leaf.record list) list;  (** every leaf's records *)
}

type swap = {
  a_base : int;
  b_base : int;
  pair : pair;
  la : int;  (** [a]'s entry key, [b]'s low mark after the swap *)
  lb : int;
  links_a : int option * int option;  (** [a]'s pre-swap (prev, next) *)
  links_b : int option * int option;
}

val group_steps : Ctx.t -> group -> step list
val swap_steps : Ctx.t -> swap -> step list

type resume =
  | Forward of { moved : int; modifies : int }
      (** the first [moved] MOVE steps and [modifies] MODIFY records are
          stable: re-run every later step, skipping those records *)
  | Backward of { undone : int }
      (** the give-up had logged [undone] reverse MOVEs: resume its
          backward list after them *)

val finish : Ctx.t -> unit_id:int -> step list -> resume -> unit
(** Finish an interrupted unit without locks (restart runs alone) and log
    its END.  [Backward] of an empty step list just ends the unit. *)

val apply_base_edits : Pager.Page.t -> Wal.Record.base_edit list -> unit
(** Apply a MODIFY record's edits to its base page: the MODIFY step and redo
    share this one function. *)

val test_skip_resumed_rewire : bool ref
(** Test-only mutation hook: while [true], {!finish} skips the first header
    or neighbour rewire it would re-run, so forward recovery leaves a broken
    leaf chain.  The torture self-test uses it to prove the crash sweep
    notices. *)
