(* Evaluate one candidate replacement for [v]: keep it (pinned) if it
   beats [best], otherwise release its dangling cone. The best
   candidate stays pinned so deleting a losing sibling that shares
   structure with it cannot collect it. [best] carries the leaves of
   the cut its candidate was built on. *)
let consider aig v best candidate leaves =
  if Aig.node_of candidate = v then best
  else begin
    let gain = Aig.gain_of_replacement aig ~root:v ~candidate in
    match best with
    | Some (bg, bc, _) when bg >= gain ->
      if Aig.node_of candidate <> Aig.node_of bc then
        Aig.delete_dangling aig (Aig.node_of candidate);
      best
    | Some (_, bc, _) ->
      Aig.pin aig candidate;
      Aig.unpin aig bc;
      Some (gain, candidate, leaves)
    | None ->
      Aig.pin aig candidate;
      Some (gain, candidate, leaves)
  end

let rewrite_node aig memo ~zero_gain v =
  let cuts = Cut.local aig v ~k:4 ~max_cuts:10 ~depth:8 in
  let best = ref None in
  List.iter
    (fun (c : Cut.cut) ->
      if Array.length c.leaves >= 2 then begin
        let tt = Cut.cut_tt_full c in
        let leaves = Array.map (fun leaf -> Aig.lit_of leaf false) c.leaves in
        let candidate = Synth.of_tt ~memo aig tt leaves in
        best := consider aig v !best candidate c.leaves
      end)
    cuts;
  match !best with
  | None -> 0
  | Some (_, candidate, leaves) ->
    Aig.unpin ~collect:false aig candidate;
    (* The candidate's cone bottoms out at the cut leaves, which lie
       strictly inside v's TFI, so the walk can stop there. *)
    if Aig.in_tfi ~bound:leaves aig ~node:v ~root:(Aig.node_of candidate) then begin
      (* Strashing rebuilt v inside the candidate: committing would
         close a cycle. *)
      Aig.delete_dangling aig (Aig.node_of candidate);
      0
    end
    else begin
      (* The gain recorded during scanning may have shifted as sibling
         candidates were released; recompute before committing. *)
      let gain = Aig.gain_of_replacement aig ~root:v ~candidate in
      if gain > 0 || (zero_gain && gain = 0) then begin
        Aig.replace_trusted aig v candidate;
        gain
      end
      else begin
        Aig.delete_dangling aig (Aig.node_of candidate);
        0
      end
    end

let run ?(zero_gain = false) aig =
  let memo = Synth.memo () in
  let order = Aig.topo aig in
  let total = ref 0 in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then total := !total + rewrite_node aig memo ~zero_gain v)
    order;
  !total
