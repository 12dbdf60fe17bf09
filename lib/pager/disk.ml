type stats = {
  reads : int;
  writes : int;
  seq_reads : int;
  rand_reads : int;
  seq_writes : int;
  rand_writes : int;
}

type t = {
  fault : Fault.t;
  page_size : int;
  mutable pages : Page.t array;
  mutable used : int;
  mutable reads : int;
  mutable writes : int;
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable seq_writes : int;
  mutable rand_writes : int;
  mutable last_read_pid : int;
  mutable last_write_pid : int;
}

let create ?(initial_pages = 0) ~fault ~page_size () =
  {
    fault;
    page_size;
    pages = Array.init (max initial_pages 8) (fun _ -> Page.create ~size:page_size);
    used = initial_pages;
    reads = 0;
    writes = 0;
    seq_reads = 0;
    rand_reads = 0;
    seq_writes = 0;
    rand_writes = 0;
    last_read_pid = -10;
    last_write_pid = -10;
  }

let page_size t = t.page_size
let page_count t = t.used

let ensure_capacity t n =
  if n > Array.length t.pages then begin
    let cap = max n (2 * Array.length t.pages) in
    let fresh = Array.init cap (fun i ->
        if i < Array.length t.pages then t.pages.(i)
        else Page.create ~size:t.page_size)
    in
    t.pages <- fresh
  end

let grow t n =
  Fault.check t.fault;
  ensure_capacity t n;
  if n > t.used then t.used <- n

let check t pid =
  if pid < 0 || pid >= t.used then
    invalid_arg (Printf.sprintf "Disk: page %d out of range (0..%d)" pid (t.used - 1))

(* Reads and writes keep separate head-position cursors: a real drive (or
   its scheduler) services the two streams independently enough that a read
   interleaved into an elevator write run should not turn the next write
   into a "random" one. *)
let read t pid =
  Fault.check t.fault;
  check t pid;
  t.reads <- t.reads + 1;
  if pid = t.last_read_pid + 1 then t.seq_reads <- t.seq_reads + 1
  else t.rand_reads <- t.rand_reads + 1;
  t.last_read_pid <- pid;
  Bytes.copy t.pages.(pid)

let write t pid page =
  (* A torn write lands only the atomic prefix (kind + checksum); the LSN
     and body do not.  The stored checksum (computed over the new LSN and
     body) then disagrees with the surviving old pair, which is exactly what
     read-side verification detects — and the old LSN still describes the
     old body, so recovery knows where to resume replay. *)
  let len = match Fault.on_write t.fault with `Full -> t.page_size | `Torn -> Page.torn_prefix in
  check t pid;
  if Bytes.length page <> t.page_size then invalid_arg "Disk.write: bad page size";
  t.writes <- t.writes + 1;
  if pid = t.last_write_pid + 1 then t.seq_writes <- t.seq_writes + 1
  else t.rand_writes <- t.rand_writes + 1;
  t.last_write_pid <- pid;
  Bytes.blit page 0 t.pages.(pid) 0 len;
  (* If this write tripped the plan, die *after* applying it: the crash
     happens at the boundary, not before it. *)
  Fault.check t.fault

let peek t pid =
  check t pid;
  Bytes.copy t.pages.(pid)

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    seq_reads = t.seq_reads;
    rand_reads = t.rand_reads;
    seq_writes = t.seq_writes;
    rand_writes = t.rand_writes;
  }

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.seq_reads <- 0;
  t.rand_reads <- 0;
  t.seq_writes <- 0;
  t.rand_writes <- 0;
  t.last_read_pid <- -10;
  t.last_write_pid <- -10

let io_cost ?(seek_cost = 10.0) ?(transfer_cost = 1.0) (s : stats) =
  let f = float_of_int in
  (f s.rand_reads *. (seek_cost +. transfer_cost))
  +. (f s.seq_reads *. transfer_cost)
  +. (f s.rand_writes *. (seek_cost +. transfer_cost))
  +. (f s.seq_writes *. transfer_cost)
