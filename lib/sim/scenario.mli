(** Canonical database states used by the experiments.

    All generators are deterministic from the seed.  Keys are even (inserts
    by concurrent updaters use odd keys), payloads come from
    {!Db.payload_for}. *)

val aged :
  ?faults:Pager.Fault.t ->
  ?page_size:int ->
  ?leaf_pages:int ->
  ?span_factor:float ->
  ?record_locking:bool ->
  ?capacity:int ->
  seed:int ->
  n:int ->
  f1:float ->
  unit ->
  Db.t * (int * string) list
(** The paper's §2 tree: [n] records at leaf fill factor [f1], leaves
    scattered over the leaf zone ([span_factor] slots per leaf, default 1.4)
    with free pages interleaved — a file aged by splits and free-at-empty.
    Everything is flushed (the state is durable).  Returns the db and its
    contents. *)

val thinned :
  ?page_size:int -> seed:int -> n:int -> survive:float -> unit -> Db.t * (int * string) list
(** Dense load then transactional uniform deletion down to [survive]:
    sparseness produced by real free-at-empty deletes. *)

val purged :
  ?page_size:int ->
  seed:int ->
  n:int ->
  ranges:int ->
  width:float ->
  unit ->
  Db.t * (int * string) list
(** Clustered range deletions (retention purges). *)

val arm_olc : config:Reorg.Config.t -> Db.t -> unit
(** Set [db]'s optimistic read path to [config.olc]. *)

val trace_run : Sched.Engine.t -> Obs.Trace.t option -> Db.t array -> unit
(** Point one run's tracing at one trace: the engine's logical clock and
    per-process rows, and a {!Trace_sink} subscription on every store's bus
    (made once per store). *)

type run = {
  registry : Obs.Registry.t option;  (** every subsystem's counters *)
  tracer : Obs.Trace.t option;  (** spans on per-process rows, in logical time *)
  checker : Model.Checker.t option;
      (** attached to the store's bus ({!Model.Checker.attach}); the caller
          finalizes it *)
  config : Reorg.Config.t;  (** [config.olc] arms the users' optimistic path ({!arm_olc}) *)
  pass1_workers : int;
  users : int;  (** {!Workload.Mix} users, stopped when the reorganizer reports *)
  user_mix : Workload.Mix.mix;
  user_ops : int;  (** per user, at most *)
  user_key_space : int option;
  seed : int;  (** the users' seed *)
  sampler : Obs.Health.Sampler.t option;
      (** snapshots at tick 0, every [sample_every] ticks, and once after the report *)
  sample_every : int;
  hook : Sched.Engine.t -> Reorg.Ctx.t -> stop:(unit -> bool) -> unit;
      (** spawns extra processes; [stop ()] turns true when the reorganizer reports *)
}

val default : run
(** Nothing observed or checked, {!Reorg.Config.default}, one pass-1 worker,
    no users (else [read_mostly], 10_000 ops, seed 1), sampling every 25
    ticks, a hook that spawns nothing. *)

type result = {
  ctx : Reorg.Ctx.t;
  report : Reorg.Driver.report;
  users : Workload.Mix.stats;
  reorg_ticks : int;  (** the tick at which {!Reorg.Driver.run} returned *)
  ticks : int;  (** the engine's clock after the run *)
}

val run_reorg : run -> Db.t -> result
(** The reorganization harness: the full reorganization of [db] on a fresh
    engine, wired through {!trace_run}, beside the run's users and hook.
    Spawn order: the sampler, the ["reorganizer"], the users, then the
    hook's processes.  Fails if the reorganizer did not finish. *)
