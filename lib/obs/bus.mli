(** One typed event stream per store.

    Every component of a store emits on the store's bus; its observers (tree
    health, the trace, the protocol checker) subscribe.  [event] is
    extensible: each layer adds typed constructors carrying raw values, and
    rendering them is the subscriber's job.  Each emitting module owns a
    {!topic}; an emit site tests {!wants} before it builds an event, so a
    topic nobody handles costs one mask test and no allocation. *)

type event = ..
type topic

val topic : unit -> topic
(** A fresh topic (one bit of a mask), made at module initialisation. *)

type t

val create : unit -> t

val subscribe : t -> topic list -> (event -> unit) -> unit
(** Call [f] synchronously with every later event of the listed topics,
    after the subscribers registered before it. *)

val wants : t -> topic -> bool
val emit : t -> topic -> event -> unit
