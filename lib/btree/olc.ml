(* Optimistic-lock-coupling support state (FB+-tree style).

   One [t] per tree file: a page-id-indexed array of version counters, a global
   epoch, and a gauge of reorganization units currently executing.  The
   rules are deliberately coarse so the write paths stay cheap:

   - Every structure-modifying or record-moving page write bumps the
     page's version: leaf splits and merges through [Tree.physical],
     pass-1/2/3 record moves and page frees in [Unit_exec]/[Pass3]
     (which mutate frames directly and journal raw physical images),
     side-file catch-up and the switch's meta flip.  Record-level inserts
     and deletes that merely change a leaf's contents do NOT bump: an
     optimistic reader always reads page contents inside one atomic
     scheduler step, so only {e structural} staleness — a captured child
     pointer or side pointer going stale across a yield — needs
     detection.

   - [invalidate_all] (crash / volatile teardown) advances the epoch and
     clears the table: every in-flight optimistic descent fails its next
     validation and retries or falls back to the locked protocol.

   - [unit_begin]/[unit_end] bracket §5 reorganization units.  While any
     unit is active the optimistic protocol is unsafe in the worst case
     (records are mid-move between org and dest), so readers observe
     [active] and fall back to the paper's R/RX/RS path — keeping
     Table-1 semantics exactly where they matter.

   Versions are volatile by design: after a crash the table restarts
   empty (epoch advanced), which is safe because no optimistic descent
   survives a crash either. *)

type t = {
  (* Indexed by page id; a page past the end has version 0.  Page ids are
     dense, so the array grows to the highest page id ever bumped. *)
  mutable versions : int array;
  mutable epoch : int;
  mutable active_units : int;
  mutable reads : int;  (* optimistic reads completed without locks *)
  mutable retries : int;  (* validation conflicts that restarted a descent *)
  mutable fallbacks : int;  (* descents that gave up and took the locked path *)
  mutable version_bumps : int;
}

(* Test-only mutation hook: when set, version bumps are silently skipped, so
   a structural change can hide from in-flight optimistic readers.  The
   conformance checker's olc model must then observe a stale read
   ([Olc_read] with [valid = false]) — proving the validation actually
   protects something. *)
let test_skip_bumps = ref false

let create () =
  {
    versions = Array.make 512 0;
    epoch = 0;
    active_units = 0;
    reads = 0;
    retries = 0;
    fallbacks = 0;
    version_bumps = 0;
  }

let version t pid =
  if pid >= 0 && pid < Array.length t.versions then Array.unsafe_get t.versions pid else 0

let bump t pid =
  if not !test_skip_bumps then begin
    let len = Array.length t.versions in
    if pid >= len then begin
      let bigger = Array.make (max (pid + 1) (2 * len)) 0 in
      Array.blit t.versions 0 bigger 0 len;
      t.versions <- bigger
    end;
    t.versions.(pid) <- t.versions.(pid) + 1;
    t.version_bumps <- t.version_bumps + 1
  end

let epoch t = t.epoch

let invalidate_all t =
  t.epoch <- t.epoch + 1;
  Array.fill t.versions 0 (Array.length t.versions) 0;
  (* Units die with the machine; recovery finishes them forward without any
     concurrent readers, then re-balances through its own [unit_end]s being
     clamped at zero. *)
  t.active_units <- 0

let unit_begin t = t.active_units <- t.active_units + 1

let unit_end t = if t.active_units > 0 then t.active_units <- t.active_units - 1

let active t = t.active_units > 0

let note_read t = t.reads <- t.reads + 1
let note_retry t = t.retries <- t.retries + 1
let note_fallback t = t.fallbacks <- t.fallbacks + 1

let reads t = t.reads
let retries t = t.retries
let fallbacks t = t.fallbacks
let version_bumps t = t.version_bumps

let register_obs t reg =
  Obs.Registry.gauge reg "olc.reads" (fun () -> t.reads);
  Obs.Registry.gauge reg "olc.retries" (fun () -> t.retries);
  Obs.Registry.gauge reg "olc.fallbacks" (fun () -> t.fallbacks);
  Obs.Registry.gauge reg "olc.version_bumps" (fun () -> t.version_bumps)
