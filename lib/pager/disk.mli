(** Simulated disk: an array of fixed-size pages with I/O accounting.

    The paper's evaluation concerns I/O counts and physical contiguity of leaf
    pages (range scans over a reorganized tree read sequential pages).  The
    disk therefore tracks, besides raw read/write counts, how many reads {e
    and} writes were {e sequential} — page id = previously {e read} id + 1
    for reads, previously {e written} id + 1 for writes.  The two streams
    keep independent cursors, so a read interleaved into an elevator write
    run does not misclassify the next write as random.  Experiments apply a
    seek/transfer cost model to both paths — pass 2's contiguity argument
    applies to the bottom-up build's write stream too.

    Every read, write and grow passes the store's {!Fault} controller, so a
    simulated crash stops all page I/O at one boundary. *)

type t

type stats = {
  reads : int;
  writes : int;
  seq_reads : int; (** reads at [last read + 1] *)
  rand_reads : int;
  seq_writes : int; (** writes at [last written + 1] *)
  rand_writes : int;
}

val create : ?initial_pages:int -> fault:Fault.t -> page_size:int -> unit -> t
(** [fault] is the controller this disk obeys: every {!read}, {!write} and
    {!grow} raises {!Fault.Crash} once the machine is dead, and the write
    that trips an armed plan lands (in full, or torn to its first
    {!Page.torn_prefix} bytes) before the crash is raised. *)

val page_size : t -> int
val page_count : t -> int

val read : t -> int -> Page.t
(** [read disk pid] returns a {e copy} of the on-disk image.  Raises
    [Invalid_argument] if [pid] is out of range. *)

val write : t -> int -> Page.t -> unit
(** Store a copy of the page image.  Every write is immediately durable. *)

val grow : t -> int -> unit
(** [grow disk n] ensures at least [n] pages exist (new ones zeroed/free). *)

val peek : t -> int -> Page.t
(** Like {!read} but without touching the I/O counters or the fault — for
    assertions and recovery-time scans, which model neither I/O cost nor the
    crashed machine.  {!stats}, {!reset_stats} and {!io_cost} do not consult
    the fault either. *)

val stats : t -> stats
val reset_stats : t -> unit

val io_cost : ?seek_cost:float -> ?transfer_cost:float -> stats -> float
(** Simple cost model: each random read or write pays
    [seek_cost + transfer_cost]; each sequential read or write pays
    [transfer_cost] only.  Defaults: seek 10.0, transfer 1.0. *)
