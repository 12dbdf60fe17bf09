(** Model-conformance runner: seeded deterministic workloads, the
    crash-boundary torture sweeps, and the two mutation self-tests, each
    replayed with a {!Model.Checker} attached.  All runs are deterministic
    from their arguments. *)

type summary = {
  label : string;
  events : int;  (** protocol events judged *)
  tracks : int;  (** machine instances created *)
  violations : Model.Machine.violation list;
}

val ok : summary -> bool
val to_string : summary -> string

val workload : ?olc:bool -> seed:int -> unit -> summary
(** Reorganization of an aged tree with concurrent update-heavy users.
    [olc:true] runs the users' reads through the optimistic path with the
    oracle probe feeding the olc conformance machine. *)

val torture :
  ?n:int ->
  ?leaf_pages:int ->
  ?pipeline:bool ->
  ?olc:bool ->
  seed:int ->
  stride:int ->
  users:int ->
  unit ->
  summary
(** {!Torture.run} with the checker attached; a harness [Failed] (data loss
    rather than a protocol violation) is folded into the summary too.
    [pipeline:true] runs the sweep with the asynchronous durability pipeline
    attached — the checker then also judges crashes that land inside
    group-commit windows and across checkpoint truncation.  [olc:true] turns
    the optimistic read path on in every cycle, so crashes also land inside
    optimistic descents (the epoch invalidation must force a clean retry). *)

val shard_torture : ?n:int -> seed:int -> stride:int -> unit -> summary
(** {!Torture.run_sharded} with the checker attached (its lock, protocol and
    coordinator streams), folding a harness [Failed] in the same way. *)

val mutate_table1 : unit -> summary
(** Flips one Table-1 cell ({!Lockmgr.Mode.test_break_compat}) and drives the
    lock manager through it: the summary must NOT be [ok]. *)

val mutate_switch : unit -> summary
(** Breaks the §7.1 CK-advance contract ({!Reorg.Pass3.test_skip_ck_advance})
    during a small reorganization: the summary must NOT be [ok]. *)

val mutate_olc : unit -> summary
(** Skips the optimistic-read version bumps ({!Btree.Olc.test_skip_bumps})
    while read-only users race swap/compact units optimistically: the olc
    machine's oracle guard must fire, so the summary must NOT be [ok]. *)
