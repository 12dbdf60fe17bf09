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

val arm_olc : ?prot:(Reorg.Prot.event -> unit) -> config:Reorg.Config.t -> Db.t -> unit
(** Set [db]'s optimistic read path to [config.olc].  With it on and a
    [prot] sink given, every committed optimistic read also flows into
    [prot] with its oracle verdict ({!Reorg.Prot.Olc_read}), which is how the
    olc conformance machine sees it. *)

val run_reorg :
  ?registry:Obs.Registry.t ->
  ?tracer:Obs.Trace.t ->
  ?checker:Model.Checker.t ->
  ?config:Reorg.Config.t ->
  ?users:int ->
  ?user_mix:Workload.Mix.mix ->
  ?user_ops:int ->
  ?user_key_space:int ->
  ?seed:int ->
  ?sampler:Obs.Health.Sampler.t ->
  ?sample_every:int ->
  Db.t ->
  Reorg.Ctx.t * Reorg.Driver.report * Workload.Mix.stats
(** Run the full reorganization inside a fresh scheduler, optionally with
    concurrent users (they stop when the reorganizer finishes or after
    [user_ops], default 10_000 each).  [checker] attaches the protocol-model
    conformance checker to the lock manager and the reorganization context
    (the caller finalizes and inspects it afterwards).  [config.olc] turns
    the optimistic read path on for the user processes ({!arm_olc}).

    [registry] collects every subsystem's
    counters (scheduler, locks, pager, WAL, reorganizer); [tracer] records
    the run as spans/instants on per-process timeline rows, with its clock
    driven by the scheduler's logical time.

    [sampler] spawns a sampling process on the same engine: its clock is
    pointed at the engine, it snapshots at tick 0 and then every
    [sample_every] ticks (default 25), plus one final snapshot after the
    reorganizer reports — deterministic health time series for free. *)
