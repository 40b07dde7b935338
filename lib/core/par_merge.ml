module Aig = Sbm_aig.Aig
module FR = Sbm_obs.Flight_recorder
module M = Sbm_obs.Metrics

let run parts ~analyze ~clean ~merge ~redo =
  let skipped = ref 0 in
  (* Partition boundary: poll the watchdog, and skip the partition
     while an abort is pending. *)
  let aborted () =
    Sbm_obs.Boundary.poll ();
    let abort = Sbm_obs.Watchdog.abort_requested () in
    if abort then incr skipped;
    abort
  in
  if Sbm_par.Jobs.get () <= 1 || List.length parts <= 1 then
    List.iteri (fun i part -> if not (aborted ()) then ignore (redo i part)) parts
  else begin
    (* Registry bumps and recorder events a worker makes land in
       domain-local buffers; they reach the main domain only when the
       analysis merges, so totals and event order match the
       sequential run. *)
    let analyze i part =
      if Sbm_obs.Watchdog.abort_requested () then None
      else
        let (r, events), deltas =
          M.capture (fun () -> FR.capture (fun () -> analyze i part))
        in
        Some (r, events, deltas)
    in
    let apply i part result ~dirty =
      if aborted () then false
      else
        match result with
        | Some (r, events, deltas) when (not dirty) && clean r ->
          M.replay deltas;
          FR.replay events;
          merge i part r;
          false
        | Some _ | None -> redo i part
    in
    Sbm_par.Sched.run_ordered (Sbm_par.Pool.global ()) (Array.of_list parts)
      ~analyze ~apply
  end;
  !skipped

(* A worker analyzing a partition on a private AIG snapshot still
   builds (and discards) speculative candidate cones, and the origin
   ledger counts those constructions. When the analysis is merged
   without a redo, the live AIG never saw the speculation, so the
   worker's created-count deltas must be folded in explicitly —
   otherwise attribution shares would differ between job counts. *)
let created_delta ~before ~after =
  List.filter_map
    (fun (o, created, _live) ->
      let prev =
        match List.find_opt (fun (o', _, _) -> o' = o) before with
        | Some (_, c, _) -> c
        | None -> 0
      in
      if created > prev then Some (o, created - prev) else None)
    after

let on_snapshot aig f =
  let snap = Aig.copy aig in
  let before = Aig.origin_stats snap in
  let r = f snap in
  (r, created_delta ~before ~after:(Aig.origin_stats snap))

let merge_created aig deltas =
  List.iter (fun (o, n) -> Aig.note_created aig o n) deltas

let merge_prefilter (dst : Prefilter.counts) (src : Prefilter.counts) =
  dst.Prefilter.rejected_sig <- dst.Prefilter.rejected_sig + src.Prefilter.rejected_sig;
  dst.Prefilter.rejected_const <-
    dst.Prefilter.rejected_const + src.Prefilter.rejected_const;
  dst.Prefilter.survivors <- dst.Prefilter.survivors + src.Prefilter.survivors
