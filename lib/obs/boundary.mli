(** The single pass/merge boundary path (DESIGN.md §9): the one stack
    of open passes, and the one place each boundary is published to
    the audit trail, the ledger, the flight recorder and the
    watchdog. Main domain only; merge boundaries in ascending
    partition index. *)

val live : unit -> bool
(** True while the ledger or the audit trail is on: pass boundaries
    must then be measured. *)

val start : ?size:int -> ?depth:int -> string -> unit
(** Open a pass. [size]/[depth] are given when the boundary is
    measured; a measured start also records the recorder's
    ["pass start"] event. *)

type measure = {
  size : int;
  depth : int;
  dead_node_pct : int;
  structure : unit -> int64;  (** forced only while the trail is on *)
  lut_qor : unit -> int * int;
      (** LUT-6 count and levels; forced only while the ledger is on *)
}

val finish : ?measure:measure -> unit -> unit
(** Close the innermost pass: trail record, ledger row, recorder
    ["pass end"] event (all three only when [measure] is given), then
    the watchdog clears a pending abort. An unbalanced call is
    ignored. *)

val merge :
  engine:string ->
  partition:int ->
  structure:(unit -> int64) ->
  ?bails:int ->
  (string * int) list ->
  unit
(** Publish one partition merge boundary of the innermost pass:
    [bails] feeds the watchdog's bail streak and makes the recorder's
    ["partition done"] event (carrying the metrics list) a warning
    when positive; then the trail record. *)

val poll : unit -> unit
(** Run the watchdog's time and memory rules against the open
    passes. *)
