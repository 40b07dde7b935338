(** Per-pass resource ledger.

    While enabled, {!Boundary} reports every completed pass here and
    the ledger accumulates one {!row} per completed pass: QoR
    before/after, wall time, registry counter deltas, GC allocation, a
    peak-heap sample and the BDD/AIG occupancy gauges. Rows are
    deterministic at any [--jobs] except for the resource samples;
    [row_to_json ~stable:true] projects onto the deterministic subset
    (the jobs-identity test compares that projection byte-for-byte).

    The ledger is process-global, like the metrics registry: flows run
    one at a time on the main domain. *)

type row = {
  path : string;  (** slash-joined pass path, e.g. ["iteration-1/mspf"] *)
  index : int;  (** completion order within the run, from 0 *)
  size_before : int;
  size_after : int;
  depth_before : int;
  depth_after : int;
  luts : int;  (** LUT-6 count after the pass; [-1] = not probed *)
  levels : int;  (** LUT levels after the pass; [-1] = not probed *)
  fingerprint : int64;
      (** audit-trail chain value at the pass boundary ({!Fingerprint});
          [0L] when the trail was disabled. Deterministic, so part of
          the stable projection (emitted as a 16-hex-digit string). *)
  wall_ns : int64;
  counters : (string * int) list;
      (** nonzero registry counter deltas over the pass, sorted by name *)
  minor_words : float;
  major_words : float;
  heap_words : int;  (** major heap size sampled at pass end *)
  unique_load_pct : int;
      (** max BDD unique-table load observed during the pass *)
  cache_load_pct : int;
      (** max BDD computed-cache load observed during the pass *)
  dead_node_pct : int;  (** dead AIG node slots after the pass *)
}

val enable : unit -> unit
(** Start recording (clears any previous rows). *)

val disable : unit -> unit
(** Stop recording and clear. *)

val enabled : unit -> bool

val append : row -> unit
(** Record one completed pass; the row's [index] is replaced by the
    next completion index. No-op while disabled. Called by
    [Boundary.finish]. *)

val rows : unit -> row list
(** Completed rows in completion order (a nested pass precedes its
    container). *)

val row_to_json : ?stable:bool -> row -> string
(** One row as a JSON object. [~stable:true] omits [wall_ns],
    [minor_words], [major_words] and [heap_words] — the fields exempt
    from the jobs-identity contract. *)

val rows_to_json : ?stable:bool -> row list -> string
(** A JSON array of rows. *)
