(** Lock modes, including the paper's three new ones.

    Standard modes: [IS], [IX] (intention locks, held on the tree lock and on
    leaf pages under record-level locking), [S], [X].

    Paper modes (§4):
    - [R]: reorganizer share lock on {e base pages}.  Compatible with [S] so
      readers keep reading base pages whose children are being reorganized.
    - [RX]: reorganizer exclusive lock on {e leaf pages} in the current
      reorganization unit.  "Not compatible with any lock mode."  It differs
      from [X] only in the {e requester's} reaction: a user transaction that
      hits [RX] gives up instead of waiting.
    - [RS]: requested by blocked readers/updaters on the {e parent base page},
      always as an unconditional instant-duration request — it is signalled
      when grantable but never actually granted.  Incompatible with [R], so
      the signal fires exactly when the reorganizer has finished with that
      base page.

    Cells the paper's Table 1 leaves blank (mode pairs that never meet on one
    resource) are filled conservatively; {!paper_cell} reports which cells are
    specified so the Table-1 reproduction can distinguish them. *)

type t = IS | IX | S | X | R | RX | RS

val all : t list

val index : t -> int
(** Dense index in [0, arity): position of the mode in {!all} — used for
    per-mode count arrays. *)

val arity : int
(** Number of modes. *)

val compat : t -> t -> bool
(** [compat granted requested] — symmetric. *)

val test_break_compat : (t * t) option ref
(** Test-only mutation hook: while [Some (a, b)], {!compat} reports that pair
    (in either order) as compatible regardless of Table 1.  The model
    conformance self-test uses it to prove the protocol checker actually
    fires; production code must leave it [None]. *)

val covers : held:t -> need:t -> bool
(** Does holding [held] subsume a request for [need]?  ([X] covers all, [S]
    covers [IS], [IX] covers [IS].) *)

val paper_cell : granted:t -> requested:t -> [ `Yes | `No | `Blank ]
(** The literal content of the paper's Table 1 (with [RS] never granted). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
