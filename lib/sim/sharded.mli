(** Sharded-assembly helpers for experiments, the torture harness and the
    CLI: build [n] per-shard stores over one partitioned keyspace, run one
    reorganizer per shard (on one engine, or engine-per-shard for the
    embarrassingly-parallel phase), crash the whole machine at once and
    recover every shard independently. *)

type t = {
  map : Shard.Shard_map.t;
  stores : Shard.Store.t array;
  coord : Shard.Coordinator.t;
  router : Shard.Router.t;
  faults : Pager.Fault.t;
      (** the one fault controller every store shares: a crash is a single
          machine-wide event *)
}

val shards : t -> int

val thinned :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?capacity:int ->
  seed:int ->
  n:int ->
  survive:float ->
  shards:int ->
  unit ->
  t * (int * string) list
(** The sharded analogue of {!Scenario.thinned}: [n] records over the even
    keys of [[0, 2n)], uniformly partitioned into [shards] ranges, each
    shard bulk-loaded dense and thinned to [survive] through ordinary
    transactions.  Returns the assembly and the merged expected record
    set. *)

val contents : t -> (int * string) list
(** Per-shard tree contents concatenated in shard order — since shard
    ranges are ascending, this is the merged keyspace in key order. *)

val check_invariants : t -> unit
(** {!Btree.Invariant.check} on every shard; raises on the first failure. *)

val flush_all : t -> unit

val crash_now : t -> unit
(** One machine-wide crash: disarm and kill the shared fault controller
    once, drop every store's volatile state, revive. *)

val recover :
  ?registry:Obs.Registry.t ->
  ?tracer:Obs.Trace.t ->
  ?prot:(int -> Reorg.Prot.event -> unit) ->
  ?config:Reorg.Config.t ->
  t ->
  (Reorg.Ctx.t * Reorg.Recovery.outcome) array
(** Restart every shard independently, in shard order, each under its own
    [shard:(i, n)] lattice and a ["shard<i>."]-prefixed registry view.
    [prot i] is installed as shard [i]'s protocol-event sink. *)

val resume_after_recovery : t -> (Reorg.Ctx.t * Reorg.Recovery.outcome) array -> unit
(** Resume the interrupted per-shard reorganizations concurrently on one
    engine, then flush. *)

type reorg_outcome = {
  reports : Reorg.Driver.report array;
  ticks : int array;  (** per-shard final engine clocks (parallel mode) *)
  makespan : int;  (** max over shards — wall-clock of the parallel phase *)
  total_ticks : int;  (** summed over shards — total work *)
}

val reorg_parallel :
  ?registry:Obs.Registry.t ->
  ?tracer:Obs.Trace.t ->
  ?config:Reorg.Config.t ->
  t ->
  reorg_outcome
(** The embarrassingly-parallel phase: one engine {e per shard}, each
    running that shard's reorganizer to completion.  Shards share no locks,
    no log and no pages, so per-shard clocks are independent; [makespan]
    is the aggregate figure a parallel machine would show. *)

val reorg_with_users :
  ?registry:Obs.Registry.t ->
  ?tracer:Obs.Trace.t ->
  ?config:Reorg.Config.t ->
  ?user_mix:Workload.Mix.mix ->
  ?user_ops:int ->
  ?xspan:int ->
  users:int ->
  seed:int ->
  key_space:int ->
  t ->
  reorg_outcome * Workload.Mix.stats
(** The contended phase: one engine running every shard's reorganizer
    concurrently with [users] cross-shard clients issuing router
    transactions ({!Workload.Mix.spawn_cross_users}), every store's read
    path set by [config.olc] ({!Scenario.arm_olc}).  [ticks] holds the
    single engine's final clock in every slot; [makespan] equals it. *)
