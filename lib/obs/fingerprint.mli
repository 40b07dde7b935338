(** Determinism audit trail: streaming state fingerprints.

    While enabled, {!Boundary} reports every pass boundary and every
    partition merge boundary here; the trail accumulates one {!record}
    per boundary, each a composite 64-bit fingerprint of (structure,
    counter deltas, prefilter bank, seeds) plus a running chain value
    that commits to the whole prefix.
    `sbm audit` aligns two trails and names the first diverging
    boundary (DESIGN.md §15).

    Every component is bit-identical at any [--jobs]: records are
    appended on the main domain only, and merge boundaries run in
    ascending partition index at any job count. Counter digests are
    taken over deltas since {!enable}, so trails from two runs in the
    same process compare cleanly.

    The trail is process-global, like the ledger and the metrics
    registry. This library sits below [lib/aig], so structural hashes
    are computed by the caller ([Aig.fold_hash] / [Network.fold_hash])
    and passed in. *)

type kind = Pass | Merge

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type record = {
  seq : int;  (** position in the trail, from 0 *)
  kind : kind;
  label : string;
      (** slash-joined pass path, e.g. ["iteration-1/mspf"]; merge
          records append ["/<engine>-partition-<n>"] *)
  structure : int64;  (** canonical structural hash of the live network *)
  counters_digest : int64;  (** digest of the sorted nonzero counter deltas *)
  bank : int64;  (** prefilter signature-bank digest; [0L] = no bank *)
  seeds : int64;  (** RNG / pattern-bank seeds; [0L] = no bank *)
  chain : int64;  (** commits to every prior record *)
  counters : (string * int) list;
      (** the full delta vector behind [counters_digest], kept for
          counter-level divergence drill-down *)
}

val enable : ?path:string -> unit -> unit
(** Start recording (clears any previous trail). With [path], every
    record is also streamed to that file as one JSON line, flushed per
    record so a crashed run keeps its prefix. *)

val disable : unit -> unit
(** Stop recording, close the stream, clear. *)

val enabled : unit -> bool

val set_bank_source : (unit -> int64 * int64) option -> unit
(** Install the provider of the (bank digest, seeds) components —
    [Flow] points this at the live prefilter bank; [None] (the
    default) records [0L] for both. *)

val record_pass : label:string -> structure:int64 -> int64
(** Append a [Pass] record for the pass at path [label]; [structure]
    is the caller-computed structural hash at the boundary. Returns
    the record's chain value (embedded into the matching ledger row),
    or [0L] while disabled. Called by [Boundary.finish]. *)

val record_merge :
  pass:(string * string) option ->
  engine:string ->
  partition:int ->
  structure:int64 ->
  unit
(** Append a [Merge] record for one partition boundary of the
    innermost open pass [pass] = [Some (name, path)]. Applies the
    [SBM_NONDET_INJECT] perturbation when the boundary matches. Called
    by [Boundary.merge], on the main domain in ascending partition
    index. No-op while disabled. *)

val inject : (string * int) option ref
(** Test hook mirroring [SBM_NONDET_INJECT=pass:N]: when set to
    [Some (pass, n)], the structure component of merge records for
    partition [n] of passes (or engines) named [pass] is XOR-perturbed
    with a fixed mask, planting a divergence for localization tests.
    The environment variable is read lazily and only when the ref is
    unset. *)

val records : unit -> record list
(** Completed records in trail order. *)

val record_to_json : record -> string
(** One record as a JSON object (one line of the [--fingerprint]
    JSONL stream). 64-bit components are 16-hex-digit strings. *)
