(* Cut enumeration and resynthesis: cut functions must match cone
   simulation; Synth must rebuild any truth table exactly. *)

module Aig = Sbm_aig.Aig
module Cut = Sbm_aig.Cut
module Tt = Sbm_truthtable.Tt
module Rng = Sbm_util.Rng

(* Evaluate the function of [node] over given leaf values by local
   recursion. *)
let cone_value aig node leaves leaf_values =
  let memo = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace memo l leaf_values.(i)) leaves;
  Hashtbl.replace memo 0 false;
  let rec eval v =
    match Hashtbl.find_opt memo v with
    | Some b -> b
    | None ->
      let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
      let v0 = eval (Aig.node_of f0) in
      let v0 = if Aig.is_compl f0 then not v0 else v0 in
      let v1 = eval (Aig.node_of f1) in
      let v1 = if Aig.is_compl f1 then not v1 else v1 in
      let b = v0 && v1 in
      Hashtbl.replace memo v b;
      b
  in
  eval node

let check_cut_functions aig cuts_of v =
  List.iter
    (fun (c : Cut.cut) ->
      let m = Array.length c.Cut.leaves in
      if m >= 1 && not (Array.exists (fun l -> l = v) c.Cut.leaves) then
        for minterm = 0 to (1 lsl m) - 1 do
          let leaf_values = Array.init m (fun i -> (minterm lsr i) land 1 = 1) in
          let expected = cone_value aig v c.Cut.leaves leaf_values in
          let got =
            Int64.logand (Int64.shift_right_logical c.Cut.tt minterm) 1L = 1L
          in
          if expected <> got then
            Alcotest.failf "cut function of node %d differs on minterm %d" v minterm
        done)
    (cuts_of v)

let test_enumerate_functions () =
  let rng = Rng.create 401 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let cuts = Cut.enumerate aig ~k:4 ~max_cuts:8 in
    let order = Aig.topo aig in
    Array.iter
      (fun v -> if Aig.is_and aig v then check_cut_functions aig (fun v -> cuts.(v)) v)
      order
  done

let test_local_functions () =
  let rng = Rng.create 402 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let order = Aig.topo aig in
    Array.iter
      (fun v ->
        if Aig.is_and aig v then
          check_cut_functions aig
            (fun v -> Cut.local aig v ~k:4 ~max_cuts:8 ~depth:6)
            v)
      order
  done

let test_cut_width_respected () =
  let rng = Rng.create 403 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:50 ~outputs:4 rng in
  List.iter
    (fun k ->
      let cuts = Cut.enumerate aig ~k ~max_cuts:8 in
      Array.iteri
        (fun v cs ->
          if Aig.is_and aig v then
            List.iter
              (fun (c : Cut.cut) ->
                Alcotest.(check bool) "width" true (Array.length c.Cut.leaves <= k))
              cs)
        cuts)
    [ 2; 3; 4; 5; 6 ]

let test_stretch_roundtrip =
  Helpers.qcheck_case "stretch preserves function"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* leaves [2;5], super [1;2;5;9] *)
      let tt = Int64.of_int (Rng.int rng 16) in
      let leaves = [| 2; 5 |] in
      let super = [| 1; 2; 5; 9 |] in
      let stretched = Cut.stretch tt leaves super in
      let ok = ref true in
      for m = 0 to 15 do
        (* super minterm: bit0 = leaf 1, bit1 = leaf 2, bit2 = leaf 5,
           bit3 = leaf 9 *)
        let a = ((m lsr 1) land 1) lor (((m lsr 2) land 1) lsl 1) in
        let expected = Int64.logand (Int64.shift_right_logical tt a) 1L in
        let got = Int64.logand (Int64.shift_right_logical stretched m) 1L in
        if expected <> got then ok := false
      done;
      !ok)

(* Straightforward leaf union and re-expression, the reference for
   the allocation-free and word-parallel versions in [Cut]. *)
let reference_merge_leaves k a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make k 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then Some (Array.sub out 0 n)
    else if n = k then None
    else if i = la then (out.(n) <- b.(j); go i (j + 1) (n + 1))
    else if j = lb then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else if a.(i) = b.(j) then (out.(n) <- a.(i); go (i + 1) (j + 1) (n + 1))
    else if a.(i) < b.(j) then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else (out.(n) <- b.(j); go i (j + 1) (n + 1))
  in
  go 0 0 0

let reference_stretch tt leaves super =
  let m = Array.length leaves in
  let m' = Array.length super in
  if m = m' then tt
  else begin
    let r = ref 0L in
    for idx = 0 to (1 lsl m') - 1 do
      let a = ref 0 in
      let j = ref 0 in
      for i = 0 to m' - 1 do
        if !j < m && leaves.(!j) = super.(i) then begin
          if (idx lsr i) land 1 = 1 then a := !a lor (1 lsl !j);
          incr j
        end
      done;
      if Int64.logand (Int64.shift_right_logical tt !a) 1L = 1L then
        r := Int64.logor !r (Int64.shift_left 1L idx)
    done;
    !r
  end

(* A sorted array of distinct node ids below 16, at most [max_len]
   long. *)
let gen_leaves max_len =
  QCheck2.Gen.(
    list_size (int_bound max_len) (int_bound 15)
    |> map (fun l -> Array.of_list (List.sort_uniq compare l)))

let test_merge_leaves_reference =
  Helpers.qcheck_case ~count:500 "merge_leaves agrees with the reference"
    QCheck2.Gen.(triple (int_range 2 6) (gen_leaves 6) (gen_leaves 6))
    (fun (k, a, b) -> Cut.merge_leaves k a b = reference_merge_leaves k a b)

let test_stretch_reference =
  Helpers.qcheck_case ~count:500 "stretch agrees with the reference"
    QCheck2.Gen.(triple (gen_leaves 6) (gen_leaves 6) (int_bound 1_000_000))
    (fun (leaves, extra, seed) ->
      let tt = Sbm_util.Rng.next64 (Rng.create seed) in
      (* [leaves] plus new leaves from [extra], at most 6 in all. *)
      let room = 6 - Array.length leaves in
      let added =
        List.filter (fun v -> not (Array.mem v leaves)) (Array.to_list extra)
        |> List.filteri (fun i _ -> i < room)
      in
      let super = Array.of_list (List.sort compare (Array.to_list leaves @ added)) in
      Cut.stretch tt leaves super = reference_stretch tt leaves super)

(* --- Synth --- *)

let gen_tt =
  QCheck2.Gen.(
    pair (int_range 1 8) (int_bound 1_000_000)
    |> map (fun (n, seed) -> Tt.random n (Rng.create seed)))

let test_synth_exact =
  Helpers.qcheck_case ~count:100 "synth builds the exact function" gen_tt (fun tt ->
      let n = Tt.num_vars tt in
      let aig = Aig.create () in
      let leaves = Array.init n (fun _ -> Aig.add_input aig) in
      let root = Sbm_aig.Synth.of_tt aig tt leaves in
      ignore (Aig.add_output aig root);
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
        if (Sbm_aig.Sim.eval aig bits).(0) <> Tt.get_bit tt m then ok := false
      done;
      !ok)

let test_synth_cost_bound =
  Helpers.qcheck_case "cost bounds real construction" gen_tt (fun tt ->
      let n = Tt.num_vars tt in
      let aig = Aig.create () in
      let leaves = Array.init n (fun _ -> Aig.add_input aig) in
      let cp = Aig.mark_created aig in
      let root = Sbm_aig.Synth.of_tt aig tt leaves in
      ignore (Aig.add_output aig root);
      Aig.fresh_since aig cp <= Sbm_aig.Synth.cost_of_tt tt)

let test_synth_of_sop =
  Helpers.qcheck_case "sop construction matches" gen_tt (fun tt ->
      let n = Tt.num_vars tt in
      let cubes = Tt.isop tt (Tt.const0 n) in
      let aig = Aig.create () in
      let leaves = Array.init n (fun _ -> Aig.add_input aig) in
      let root = Sbm_aig.Synth.of_sop aig cubes ~nvars:n leaves in
      ignore (Aig.add_output aig root);
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
        if (Sbm_aig.Sim.eval aig bits).(0) <> Tt.get_bit tt m then ok := false
      done;
      !ok)

(* A memo shared by a sequence of calls (as a pass shares it) must
   build exactly what per-call memos build: the same literals, in two
   networks grown identically. *)
let test_synth_shared_memo =
  Helpers.qcheck_case ~count:30 "shared memo builds the same literals"
    QCheck2.Gen.(
      pair (int_bound 1_000_000) (list_size (int_range 1 30) (pair (int_range 1 8) (int_bound 3))))
    (fun (base, specs) ->
      let build memo =
        let aig = Aig.create () in
        let leaves = Array.init 8 (fun _ -> Aig.add_input aig) in
        (* Few distinct (width, seed) pairs, so later calls hit what
           earlier ones put in the shared memo. *)
        List.map
          (fun (n, k) -> Sbm_aig.Synth.of_tt ?memo aig (Tt.random n (Rng.create (base + k))) leaves)
          specs
      in
      build (Some (Sbm_aig.Synth.memo ())) = build None)

let test_synth_trivial () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let leaves = [| a; b |] in
  Alcotest.(check int) "const0" Aig.const0 (Sbm_aig.Synth.of_tt aig (Tt.const0 2) leaves);
  Alcotest.(check int) "const1" Aig.const1 (Sbm_aig.Synth.of_tt aig (Tt.const1 2) leaves);
  Alcotest.(check int) "projection" a (Sbm_aig.Synth.of_tt aig (Tt.var 2 0) leaves);
  Alcotest.(check int) "negated projection" (Aig.lnot b)
    (Sbm_aig.Synth.of_tt aig (Tt.bnot (Tt.var 2 1)) leaves)

let suite =
  [
    Alcotest.test_case "global cut functions" `Quick test_enumerate_functions;
    Alcotest.test_case "local cut functions" `Quick test_local_functions;
    Alcotest.test_case "cut width respected" `Quick test_cut_width_respected;
    test_stretch_roundtrip;
    test_merge_leaves_reference;
    test_stretch_reference;
    test_synth_exact;
    test_synth_cost_bound;
    test_synth_of_sop;
    test_synth_shared_memo;
    Alcotest.test_case "synth trivial cases" `Quick test_synth_trivial;
  ]
