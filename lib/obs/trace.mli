(** Deterministic span/event tracing with Chrome [trace_event] export.

    Events are stamped by an injected logical clock (in this repository:
    {!Sched.Engine} ticks), never wall-clock time, so a fixed seed yields a
    byte-identical trace — replayable timelines, in the spirit of the
    contention profiling that motivates the paper's measurements.

    [tid] identifies a timeline row; the scheduler uses one per fiber, so
    the exported trace shows the reorganizer's passes on one row and every
    user transaction's lock waits on its own row.  Load the JSON in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

type arg = Int of int | Float of float | Str of string

type event =
  | Span of {
      name : string;
      cat : string;
      tid : int;
      ts : int;
      dur : int;
      args : (string * arg) list;
    }
  | Instant of { name : string; cat : string; tid : int; ts : int; args : (string * arg) list }
  | Counter of { name : string; cat : string; tid : int; ts : int; args : (string * arg) list }

type t

val create : ?clock:(unit -> int) -> ?limit:int -> unit -> t
(** [clock] supplies logical timestamps (default: constant 0 — set a real
    clock before recording).  [limit], when positive, caps the number of
    recorded events; the excess is counted in {!dropped}. *)

val set_clock : t -> (unit -> int) -> unit
val event_count : t -> int
val dropped : t -> int

val name_thread : t -> tid:int -> string -> unit
(** Label a timeline row (first registration wins). *)

val instant : t -> ?tid:int -> ?args:(string * arg) list -> cat:string -> string -> unit

val counter : t -> ?tid:int -> cat:string -> string -> (string * arg) list -> unit
(** Record a Chrome ["ph":"C"] counter sample: each numeric arg is one
    series of the counter track named [name].  The health sampler emits its
    time series this way. *)

val complete :
  t -> ?tid:int -> ?args:(string * arg) list -> cat:string -> ts:int -> dur:int -> string -> unit
(** Record a span whose interval was measured by the caller (e.g. a lock
    wait recorded at wake-up time). *)

val begin_span : t -> ?tid:int -> ?args:(string * arg) list -> cat:string -> string -> unit

val end_span : t -> ?tid:int -> ?args:(string * arg) list -> unit -> unit
(** Close the innermost open span on [tid]; [args] are appended to the ones
    given at {!begin_span}.  Raises [Invalid_argument] if none is open. *)

val with_span :
  t -> ?tid:int -> ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a

val to_chrome_json : t -> string
val write_chrome : t -> string -> unit

val to_timeline : t -> string
(** Compact text rendering, one line per event in recording order. *)

val count_named : t -> string -> int
