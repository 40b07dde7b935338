(** The partition merge protocol shared by the partitioned engines
    (Boolean-difference resub, MSPF, heterogeneous kernel
    extraction). *)

val run :
  'p list ->
  analyze:(int -> 'p -> 'a) ->
  clean:('a -> bool) ->
  merge:(int -> 'p -> 'a -> unit) ->
  redo:(int -> 'p -> bool) ->
  int
(** [run parts ~analyze ~clean ~merge ~redo] drives the partitions
    in ascending index and returns how many were skipped under a
    pending watchdog abort (DESIGN.md §10). [analyze] runs on a worker,
    on a snapshot the engine takes; a [clean] result that is not stale
    is [merge]d after its captured counter bumps and recorder events
    are replayed; every other partition, and every partition at one
    job, goes to [redo], which works on the live structure and returns
    [true] when it committed edits. *)

val on_snapshot :
  Sbm_aig.Aig.t -> (Sbm_aig.Aig.t -> 'a) -> 'a * (Sbm_aig.Aig.Origin.t * int) list
(** [on_snapshot aig f] runs [f] on a private copy of [aig] and returns
    its result with the origin created-count deltas the run produced,
    for {!merge_created} when the analysis merges. *)

val merge_created : Sbm_aig.Aig.t -> (Sbm_aig.Aig.Origin.t * int) list -> unit
(** Fold a merged worker's speculative created-node counts into the
    live AIG's origin ledger. *)

val merge_prefilter : Prefilter.counts -> Prefilter.counts -> unit
(** [merge_prefilter dst src] adds a merged worker's prefilter verdict
    tallies into [dst]. *)
