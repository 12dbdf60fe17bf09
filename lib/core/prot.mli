(** The reorganizer's typed events, emitted on the store's bus
    ({!Ctx.emit}) under {!topic}.

    Most are protocol steps: the [lib/model] conformance machines replay
    them against guarded models of the paper's unit lifecycle (§5) and
    switch protocol (§7).  The rest are for the other subscribers: pass
    spans ({!Phase_begin}/{!Phase_end}) for the trace, and the progress
    facts the health tracker counts ({!Switched}, {!Side_backlog}).

    Event sources:
    - [Unit_begin]/[Unit_move]/[Unit_modify]/[Unit_end] are derived from the
      reorganization WAL records at their single append choke point
      ({!Ctx.log_reorg}), so unit execution, §5.2 undo and recovery's
      completion paths are all covered without per-site hooks;
    - [Unit_undo] marks the §5.2 give-up decision (before its reverse moves),
      [Unit_recover] marks restart's decision to finish an interrupted unit;
    - the pass-3 events trace §7: scan with strictly-advancing CK (§7.1),
      side-file catch-up, the switch record, the drain with forced aborts
      (§7.4) and the λ-switch variant;
    - [Side_accept]/[Side_redirect] are the side file's per-update admission
      decisions (accepted behind CK vs redirected to the new tree). *)

val topic : Obs.Bus.topic

type pass3_mode = Fresh | Resume | Finish

(** A traced stretch of the reorganization ({!Ctx.span}). *)
type phase =
  | Pass1 of { workers : int }
  | Pass2
  | Pass3
  | Pass3_scan
  | Pass3_switch of { old_root : int; new_root : int }

type Obs.Bus.event +=
  | Unit_begin of {
      actor : int;
      unit_id : int;
      kind : Wal.Record.reorg_type;
      bases : int list;
      leaves : int list;
      lsn : int;
    }
  | Unit_move of { actor : int; unit_id : int; org : int; dest : int; lsn : int }
  | Unit_modify of { actor : int; unit_id : int; base : int; lsn : int }
  | Unit_undo of { actor : int; unit_id : int }
  | Unit_end of { actor : int; unit_id : int; largest_key : int; lsn : int }
  | Unit_recover of { actor : int; unit_id : int }
  | Pass3_start of { actor : int; mode : pass3_mode; ck : int; lambda : bool }
  | Scan_base of { actor : int; base : int; ck_before : int; ck_after : int }
  | Scan_done of { actor : int }
  | Catchup of { actor : int; applied : int }
  | Side_locked of { actor : int }
      (** the reorganizer holds X on the side file: admissions now redirect *)
  | Switch_logged of {
      actor : int;
      old_root : int;
      new_root : int;
      old_name : int;
      new_name : int;
      backlog : int;  (** side-file entries left at switch — must be 0 *)
      lsn : int;
    }
  | Forced_abort of { actor : int; owner : int; lambda : bool }
  | Switch_cleanup of { actor : int }
  | Side_accept of { key : int; backlog : int }  (** [backlog]: the size after it *)
  | Side_redirect of { key : int }
  | Phase_begin of phase
  | Phase_end of phase  (** also when the phase raised *)
  | Switched  (** pass 3's switch completed: the meta page names the new root *)
  | Side_backlog of { size : int; change : Obs.Health.side_event }
      (** after a take, undo-remove or recovery restore *)

val key_to_string : int -> string
(** Renders [min_int]/[max_int] as the -inf/+inf sentinels they are. *)

val to_string : Obs.Bus.event -> string
(** Renders the protocol steps; any other event as a placeholder. *)

