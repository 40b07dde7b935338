(* Structural tests of the AIG core: strashing, folding, reference
   counting, MFFC, replacement with cascading merges, compaction. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

let test_constant_folding () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  Alcotest.(check int) "a & a = a" a (Aig.band aig a a);
  Alcotest.(check int) "a & ~a = 0" Aig.const0 (Aig.band aig a (Aig.lnot a));
  Alcotest.(check int) "a & 0 = 0" Aig.const0 (Aig.band aig a Aig.const0);
  Alcotest.(check int) "a & 1 = a" a (Aig.band aig a Aig.const1);
  Alcotest.(check int) "1 & b = b" b (Aig.band aig Aig.const1 b);
  Alcotest.(check int) "size is 0 without outputs" 0 (Aig.size aig)

let test_strash () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig b a in
  Alcotest.(check int) "commutative strash hit" x y;
  let z = Aig.band aig (Aig.lnot a) b in
  Alcotest.(check bool) "different phase, different node" false (x = z)

let test_derived_gates () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let xor_ab = Aig.bxor aig a b in
  ignore (Aig.add_output aig xor_ab);
  let truth (va, vb) =
    let bits = [| va; vb |] in
    (Sbm_aig.Sim.eval aig bits).(0)
  in
  Alcotest.(check bool) "0^0" false (truth (false, false));
  Alcotest.(check bool) "0^1" true (truth (false, true));
  Alcotest.(check bool) "1^0" true (truth (true, false));
  Alcotest.(check bool) "1^1" false (truth (true, true))

let test_refcounts_and_check () =
  let rng = Rng.create 42 in
  for seed = 0 to 9 do
    ignore seed;
    let aig = Helpers.random_aig ~inputs:6 ~ands:50 ~outputs:3 rng in
    Aig.check aig
  done

let test_mffc () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  (* A chain: n1 = a&b, n2 = n1&c. n2's MFFC is {n2, n1}. *)
  let n1 = Aig.band aig a b in
  let n2 = Aig.band aig n1 c in
  ignore (Aig.add_output aig n2);
  Alcotest.(check int) "chain MFFC" 2 (Aig.mffc_size aig (Aig.node_of n2));
  (* Share n1 with an output: now n2's MFFC is just {n2}. *)
  ignore (Aig.add_output aig n1);
  Alcotest.(check int) "shared fanin excluded" 1 (Aig.mffc_size aig (Aig.node_of n2))

let test_replace_simple () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let x = Aig.band aig a b in
  ignore (Aig.add_output aig x);
  (* Replace x by constant 0: output must follow; x dies. *)
  Aig.replace aig (Aig.node_of x) Aig.const0;
  Aig.check aig;
  Alcotest.(check int) "output rewired" Aig.const0 (Aig.output_lit aig 0);
  Alcotest.(check int) "empty network" 0 (Aig.size aig)

let test_replace_cascade () =
  (* Diamond where replacing one node makes its fanout structurally
     equal to an existing node: the cascade must merge them. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig a (Aig.lnot b) in
  let fx = Aig.band aig x c in
  let fy = Aig.band aig y c in
  ignore (Aig.add_output aig fx);
  ignore (Aig.add_output aig fy);
  let size_before = Aig.size aig in
  Alcotest.(check int) "four nodes" 4 size_before;
  (* Make y equal to x: fy collapses onto fx. *)
  Aig.replace aig (Aig.node_of y) x;
  Aig.check aig;
  Alcotest.(check int) "cascade merged" 2 (Aig.size aig);
  Alcotest.(check int) "outputs merged" (Aig.output_lit aig 0) (Aig.output_lit aig 1)

let test_replace_complemented_cascade () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig (Aig.lnot a) (Aig.lnot b) in
  let z = Aig.band aig y a in
  ignore (Aig.add_output aig x);
  ignore (Aig.add_output aig z);
  (* Replace y by ~x (a different function — structural surgery only):
     z becomes AND(~x, a). *)
  Aig.replace aig (Aig.node_of y) (Aig.lnot x);
  Aig.check aig;
  let z' = Aig.output_lit aig 1 in
  let zv = Aig.node_of z' in
  let f0 = Aig.fanin0 aig zv and f1 = Aig.fanin1 aig zv in
  let expected = List.sort compare [ Aig.lnot x; a ] in
  Alcotest.(check (list int)) "fanins rewired" expected (List.sort compare [ f0; f1 ])

let test_gain_of_replacement () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let n1 = Aig.band aig a b in
  let n2 = Aig.band aig n1 c in
  ignore (Aig.add_output aig n2);
  (* Candidate: replace n2 by a fresh single AND over inputs. *)
  let candidate = Aig.band aig a c in
  let gain = Aig.gain_of_replacement aig ~root:(Aig.node_of n2) ~candidate in
  (* Old cone (n1, n2) dies = 2; candidate adds 1 fresh node. *)
  Alcotest.(check int) "gain 2 - 1" 1 gain;
  (* Gain must not mutate the network. *)
  Aig.check aig;
  Alcotest.(check int) "unchanged size (candidate dangling)" 2 (Aig.size aig);
  Aig.delete_dangling aig (Aig.node_of candidate);
  Aig.check aig

let test_gain_with_sharing () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let n1 = Aig.band aig a b in
  let n2 = Aig.band aig n1 c in
  ignore (Aig.add_output aig n2);
  (* Candidate reuses n1: only n2 dies (n1 survives in candidate). *)
  let candidate = Aig.band aig n1 (Aig.lnot c) in
  let gain = Aig.gain_of_replacement aig ~root:(Aig.node_of n2) ~candidate in
  Alcotest.(check int) "sharing accounted" 0 gain;
  Aig.delete_dangling aig (Aig.node_of candidate);
  Aig.check aig

let test_compact () =
  let rng = Rng.create 7 in
  let aig = Helpers.random_aig ~inputs:6 ~ands:80 ~outputs:4 rng in
  let fresh, _map = Aig.compact aig in
  Aig.check fresh;
  Helpers.assert_equiv_exhaustive ~msg:"compact preserves function" aig fresh;
  Alcotest.(check int) "same size" (Aig.size aig) (Aig.size fresh)

let test_random_replace_stress () =
  (* Replace random nodes with random existing literals from their
     strict fanin cone (always acyclic), checking invariants. *)
  let rng = Rng.create 99 in
  for _ = 1 to 20 do
    let aig = Helpers.random_aig ~inputs:5 ~ands:40 ~outputs:3 rng in
    let order = Aig.topo aig in
    let ands = Array.to_list order |> List.filter (fun v -> Aig.is_and aig v) in
    (match ands with
    | [] -> ()
    | _ ->
      let v = List.nth ands (Rng.int rng (List.length ands)) in
      if Aig.is_and aig v then begin
        let target = Aig.fanin0 aig v in
        if Aig.node_of target <> v then begin
          Aig.replace aig v target;
          Aig.check aig
        end
      end);
    ()
  done

let test_topo_and_levels () =
  let rng = Rng.create 5 in
  let aig = Helpers.random_aig ~inputs:6 ~ands:60 ~outputs:4 rng in
  let order = Aig.topo aig in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let check_fanin f =
          let w = Aig.node_of f in
          if w <> 0 then
            Alcotest.(check bool)
              "fanin before node" true
              (Hashtbl.find pos w < Hashtbl.find pos v)
        in
        check_fanin (Aig.fanin0 aig v);
        check_fanin (Aig.fanin1 aig v)
      end)
    order;
  let lv = Aig.levels aig in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let l0 = lv.(Aig.node_of (Aig.fanin0 aig v)) in
        let l1 = lv.(Aig.node_of (Aig.fanin1 aig v)) in
        Alcotest.(check int) "level rule" (1 + max l0 l1) lv.(v)
      end)
    order

(* The fanout-cone marks resub filters divisors with must be the set
   an in_tfi probe answers, also after rewriting has rewired fanouts. *)
let test_tfo_marks_match_in_tfi () =
  let rng = Rng.create 1313 in
  let marks = Aig.tfo_marks () in
  for round = 1 to 10 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    if round mod 2 = 0 then ignore (Sbm_aig.Rewrite.run aig);
    let order = Aig.topo aig in
    Array.iter
      (fun root ->
        Aig.mark_tfo aig marks root;
        Array.iter
          (fun v ->
            if Aig.in_tfo marks v <> Aig.in_tfi aig ~node:root ~root:v then
              Alcotest.failf "round %d: tfo mark of %d disagrees at %d" round root v)
          order)
      order
  done

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "structural hashing" `Quick test_strash;
    Alcotest.test_case "derived gates" `Quick test_derived_gates;
    Alcotest.test_case "refcounts on random graphs" `Quick test_refcounts_and_check;
    Alcotest.test_case "mffc" `Quick test_mffc;
    Alcotest.test_case "replace by constant" `Quick test_replace_simple;
    Alcotest.test_case "replace with cascade merge" `Quick test_replace_cascade;
    Alcotest.test_case "replace with complement" `Quick test_replace_complemented_cascade;
    Alcotest.test_case "gain accounting" `Quick test_gain_of_replacement;
    Alcotest.test_case "gain with sharing" `Quick test_gain_with_sharing;
    Alcotest.test_case "compact" `Quick test_compact;
    Alcotest.test_case "random replace stress" `Quick test_random_replace_stress;
    Alcotest.test_case "topological order and levels" `Quick test_topo_and_levels;
    Alcotest.test_case "tfo marks match in_tfi" `Quick test_tfo_marks_match_in_tfi;
  ]
