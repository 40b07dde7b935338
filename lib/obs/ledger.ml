(* Per-pass resource ledger.

   One row per completed flow pass: QoR before/after, wall time, the
   registry counter deltas attributable to the pass, GC allocation,
   a peak-heap sample, and the BDD table / AIG occupancy gauges.

   Rows are assembled by [Boundary], which owns the open-pass stack;
   this module only numbers, keeps and serializes them.

   Determinism contract: every field except the resource samples
   (wall_ns, minor/major words, heap_words) is bit-identical at any
   --jobs. Counter deltas are differences of [Metrics.counters_now]
   taken at pass boundaries on the main domain — worker shards have
   already been replayed through the deterministic [Par_merge.run]
   order by then. The BDD load gauges are written by
   [Bdd_bridge.finish_partition] on the main domain in ascending partition
   order, so their per-pass maxima are equally job-count
   independent. [row_to_json ~stable:true] projects a row
   onto the deterministic fields only; the jobs-identity test compares
   that projection byte-for-byte. *)

type row = {
  path : string; (* slash-joined pass path, e.g. "iteration-1/mspf" *)
  index : int; (* completion order within the run, from 0 *)
  size_before : int;
  size_after : int;
  depth_before : int;
  depth_after : int;
  luts : int; (* LUT-6 count after the pass; -1 = not probed *)
  levels : int; (* LUT levels after the pass; -1 = not probed *)
  fingerprint : int64; (* audit-trail chain value; 0 = trail disabled *)
  wall_ns : int64;
  counters : (string * int) list; (* nonzero registry deltas, sorted *)
  minor_words : float; (* words allocated during the pass *)
  major_words : float;
  heap_words : int; (* major heap size sampled at pass end *)
  unique_load_pct : int; (* max BDD unique-table load during the pass *)
  cache_load_pct : int; (* max computed-cache load during the pass *)
  dead_node_pct : int; (* dead AIG slots after the pass *)
}

type state = {
  mutable enabled : bool;
  mutable rows : row list; (* newest first *)
  mutable next_index : int;
}

let state = { enabled = false; rows = []; next_index = 0 }

let enabled () = state.enabled

let set_enabled on =
  state.enabled <- on;
  state.rows <- [];
  state.next_index <- 0

let enable () = set_enabled true
let disable () = set_enabled false

let append row =
  if state.enabled then begin
    state.rows <- { row with index = state.next_index } :: state.rows;
    state.next_index <- state.next_index + 1
  end

let rows () = List.rev state.rows

(* --- JSON --- *)

let json_escape = Sbm_util.Json_escape.string

(* [stable] omits the resource samples that legitimately vary run to
   run (wall, GC words, heap); everything else is covered by the
   jobs-identity contract. *)
let buf_row ?(stable = false) b r =
  Buffer.add_string b
    (Printf.sprintf
       "{\"path\":\"%s\",\"index\":%d,\"size_before\":%d,\"size_after\":%d,\"depth_before\":%d,\"depth_after\":%d,\"luts\":%d,\"levels\":%d"
       (json_escape r.path) r.index r.size_before r.size_after r.depth_before
       r.depth_after r.luts r.levels);
  (* Additive field: emitted only when the audit trail was live, so
     pre-fingerprint readers and snapshots are unaffected. The chain
     value is deterministic, so it belongs to the stable projection. *)
  if r.fingerprint <> 0L then
    Buffer.add_string b
      (Printf.sprintf ",\"fingerprint\":\"%016Lx\"" r.fingerprint);
  if not stable then begin
    Buffer.add_string b (Printf.sprintf ",\"wall_ns\":%Ld" r.wall_ns);
    Buffer.add_string b
      (Printf.sprintf ",\"minor_words\":%.0f,\"major_words\":%.0f,\"heap_words\":%d"
         r.minor_words r.major_words r.heap_words)
  end;
  Buffer.add_string b
    (Printf.sprintf
       ",\"unique_load_pct\":%d,\"cache_load_pct\":%d,\"dead_node_pct\":%d,\"counters\":{"
       r.unique_load_pct r.cache_load_pct r.dead_node_pct);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    r.counters;
  Buffer.add_string b "}}"

let row_to_json ?stable r =
  let b = Buffer.create 256 in
  buf_row ?stable b r;
  Buffer.contents b

let rows_to_json ?stable rows =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      buf_row ?stable b r)
    rows;
  Buffer.add_char b ']';
  Buffer.contents b
