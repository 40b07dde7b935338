(* Deterministic snapshot/analyze/apply driver for partition engines.

   Partitions are processed in chunks. Each chunk is analyzed in
   parallel by [analyze] (workers operate on private snapshots of the
   host structure; the chunk boundary is a barrier, so every snapshot
   in a chunk sees all edits applied by earlier chunks). Results are
   then applied strictly in ascending partition index by [apply],
   which receives the dirty flag: [dirty = false] means no earlier
   partition of the chunk committed an edit, i.e. the worker's
   snapshot still equals the live structure and its conclusion can be
   merged as-is; [dirty = true] means the analysis is stale and the
   engine must redo the partition sequentially. [apply] returns
   whether it committed edits. *)

let run_ordered pool parts ~analyze ~apply =
  let n = Array.length parts in
  let chunk = max 1 (2 * Pool.jobs pool) in
  let i = ref 0 in
  while !i < n do
    let base = !i in
    let count = min chunk (n - base) in
    let results =
      Pool.run pool count (fun k -> analyze (base + k) parts.(base + k))
    in
    let dirty = ref false in
    Array.iteri
      (fun k r ->
        if apply (base + k) parts.(base + k) r ~dirty:!dirty then dirty := true)
      results;
    i := base + count
  done
