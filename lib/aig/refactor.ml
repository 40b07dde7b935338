module Tt = Sbm_truthtable.Tt

(* Expansion cost of replacing leaf [v] by its fanins: the number of
   new leaves added. Negative or zero costs shrink or keep the cut
   width and are always good. *)
let expansion_cost aig leaf_set v =
  if not (Aig.is_and aig v) then max_int
  else begin
    let f0 = Aig.node_of (Aig.fanin0 aig v) in
    let f1 = Aig.node_of (Aig.fanin1 aig v) in
    let cost_of w = if Hashtbl.mem leaf_set w || w = 0 then 0 else 1 in
    let c = cost_of f0 + (if f1 <> f0 then cost_of f1 else 0) in
    c - 1
  end

let reconv_cut aig root ~max_leaves =
  let leaf_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Each node is expanded at most once: on reconvergent structures a
     removed leaf can reappear through another expansion, and without
     this rule the loop oscillates. *)
  let expanded : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let add v = if v <> 0 && not (Hashtbl.mem leaf_set v) then Hashtbl.add leaf_set v () in
  add (Aig.node_of (Aig.fanin0 aig root));
  add (Aig.node_of (Aig.fanin1 aig root));
  let continue_ = ref true in
  while !continue_ do
    (* Pick the expandable leaf of minimum cost. *)
    let best = ref None in
    Hashtbl.iter
      (fun v () ->
        if v <> root && Aig.is_and aig v && not (Hashtbl.mem expanded v) then begin
          let c = expansion_cost aig leaf_set v in
          if c < max_int then begin
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | Some _ | None -> best := Some (c, v)
          end
        end)
      leaf_set;
    match !best with
    | Some (c, v) when Hashtbl.length leaf_set + c <= max_leaves ->
      Hashtbl.add expanded v ();
      Hashtbl.remove leaf_set v;
      add (Aig.node_of (Aig.fanin0 aig v));
      add (Aig.node_of (Aig.fanin1 aig v))
    | Some _ | None -> continue_ := false
  done;
  let leaves = Hashtbl.fold (fun v () acc -> v :: acc) leaf_set [] in
  Array.of_list (List.sort Stdlib.compare leaves)

let cone_tt aig root leaves =
  let n = Array.length leaves in
  if n > Tt.max_vars then invalid_arg "Refactor.cone_tt: too many leaves";
  let tts : (int, Tt.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace tts v (Tt.var n i)) leaves;
  Hashtbl.replace tts 0 (Tt.const0 n);
  let rec eval v =
    match Hashtbl.find_opt tts v with
    | Some tt -> tt
    | None ->
      if not (Aig.is_and aig v) then
        invalid_arg "Refactor.cone_tt: cone escapes the leaf set";
      let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
      let t0 = eval (Aig.node_of f0) in
      let t1 = eval (Aig.node_of f1) in
      let t0 = if Aig.is_compl f0 then Tt.bnot t0 else t0 in
      let t1 = if Aig.is_compl f1 then Tt.bnot t1 else t1 in
      let tt = Tt.band t0 t1 in
      Hashtbl.replace tts v tt;
      tt
  in
  eval root

let refactor_node aig memo ~zero_gain ~max_leaves v =
  let leaves = reconv_cut aig v ~max_leaves in
  if Array.length leaves < 2 || Array.length leaves > Tt.max_vars then 0
  else begin
    let tt = cone_tt aig v leaves in
    let leaf_lits = Array.map (fun leaf -> Aig.lit_of leaf false) leaves in
    let candidate = Synth.of_tt ~memo aig tt leaf_lits in
    if Aig.node_of candidate = v then 0
    else if Aig.in_tfi ~bound:leaves aig ~node:v ~root:(Aig.node_of candidate) then begin
      (* Strashing rebuilt v inside the candidate: skip (cycle). The
         candidate's cone bottoms out at the cut leaves, which lie
         strictly inside v's TFI, so the walk stops there. *)
      Aig.delete_dangling aig (Aig.node_of candidate);
      0
    end
    else begin
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
  end

let run ?(zero_gain = false) ?(max_leaves = 10) ?(min_mffc = 0) aig =
  let max_leaves = min max_leaves Tt.max_vars in
  let memo = Synth.memo () in
  let order = Aig.topo aig in
  let total = ref 0 in
  Array.iter
    (fun v ->
      if Aig.is_and aig v && (min_mffc <= 1 || Aig.mffc_size aig v >= min_mffc) then
        total := !total + refactor_node aig memo ~zero_gain ~max_leaves v)
    order;
  !total
