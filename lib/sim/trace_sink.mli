(** The trace subscriber: renders a store's events as {!Obs.Trace} spans and
    instants on the scheduler fibers' rows.

    Every name, category and argument list in a trace of this repository is
    built here, from the typed events the layers emit: lock victims and
    forced aborts, lock waits, page flushes and torn pages, log forces and
    truncations, and the reorganizer's pass and unit-attempt spans. *)

val subscribe : Obs.Trace.t -> Obs.Bus.t -> unit
(** Render every later event of the bus into the trace.  Subscribe a trace
    to a store once: a second subscription records every event twice. *)
