(** Deterministic chunked snapshot/analyze/apply schedule.

    [run_ordered pool parts ~analyze ~apply] analyzes [parts] in
    parallel, a chunk of twice the pool's job count at a time, then
    applies results sequentially in ascending partition
    index. [analyze i part] runs on a worker domain and must only read
    shared state (or mutate private snapshots). [apply i part result
    ~dirty] runs on the calling domain in index order; [dirty] is true
    iff an earlier partition of the same chunk committed an edit
    (worker analyses after that point are stale). [apply] returns
    [true] when it committed edits to the live structure.

    With this contract, a run at any job count applies the exact same
    edits in the exact same order as a sequential run: clean analyses
    are merged verbatim, stale ones are redone sequentially. *)
val run_ordered :
  Pool.t ->
  'p array ->
  analyze:(int -> 'p -> 'a) ->
  apply:(int -> 'p -> 'a -> dirty:bool -> bool) ->
  unit
