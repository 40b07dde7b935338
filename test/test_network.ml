(* SOP network view: AIG round-trips, elimination and extraction
   preserve function. *)

module Aig = Sbm_aig.Aig
module Network = Sbm_sop.Network
module Rng = Sbm_util.Rng

let assert_network_matches_aig aig net =
  let n = Aig.num_inputs aig in
  assert (n <= 10);
  for m = 0 to min ((1 lsl n) - 1) 4095 do
    let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    let oa = Sbm_aig.Sim.eval aig bits in
    let on = Network.eval net bits in
    if oa <> on then Alcotest.failf "network differs from AIG on minterm %d" m
  done

let test_roundtrip () =
  let rng = Rng.create 31 in
  for _ = 1 to 10 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let net = Network.of_aig aig in
    Network.check net;
    assert_network_matches_aig aig net;
    let back = Network.to_aig net in
    Aig.check back;
    Helpers.assert_equiv_exhaustive ~msg:"aig -> network -> aig" aig back
  done

let test_eliminate_preserves () =
  let rng = Rng.create 32 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let net = Network.of_aig aig in
    List.iter
      (fun threshold ->
        ignore (Network.eliminate net ~threshold ~max_cubes:64 ()))
      [ -1; 5; 50 ];
    Network.check net;
    assert_network_matches_aig aig net
  done

let test_extract_preserves () =
  let rng = Rng.create 33 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let net = Network.of_aig aig in
    ignore (Network.eliminate net ~threshold:20 ~max_cubes:64 ());
    ignore (Network.extract_kernels net ~max_passes:10 ());
    ignore (Network.extract_cubes net ~max_passes:10 ());
    Network.check net;
    assert_network_matches_aig aig net
  done

let test_eliminate_reduces_nodes () =
  (* A chain of single-fanout nodes should collapse entirely. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let d = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig x c in
  let z = Aig.band aig y d in
  ignore (Aig.add_output aig z);
  let net = Network.of_aig aig in
  let before = Network.num_internal net in
  ignore (Network.eliminate net ~threshold:10 ~max_cubes:64 ());
  Network.check net;
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes (%d before)" before)
    true
    (Network.num_internal net < before);
  assert_network_matches_aig aig net

let test_kernel_extraction_shares () =
  (* f1 = (a+b)c, f2 = (a+b)d: extraction should share (a+b). *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let d = Aig.add_input aig in
  let ab1 = Aig.bor aig a b in
  ignore
    (Aig.add_output aig (Aig.band aig ab1 c));
  ignore (Aig.add_output aig (Aig.band aig ab1 d));
  let net = Network.of_aig aig in
  (* Collapse everything into two big SOPs first. *)
  ignore (Network.eliminate net ~threshold:100 ~max_cubes:64 ());
  let lits_flat = Network.num_lits net in
  ignore (Network.extract_kernels net ~max_passes:5 ());
  Network.check net;
  assert_network_matches_aig aig net;
  Alcotest.(check bool)
    (Printf.sprintf "literals reduced from %d" lits_flat)
    true
    (Network.num_lits net <= lits_flat)

let test_snapshot_rollback () =
  let rng = Rng.create 34 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
  let net = Network.of_aig aig in
  let mark = Network.mark net in
  let saved =
    List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net)
  in
  ignore (Network.eliminate net ~threshold:100 ~max_cubes:64 ());
  ignore (Network.extract_kernels net ~max_passes:5 ());
  (* Roll back. *)
  Network.truncate net mark;
  List.iter
    (fun (n, cv) ->
      Network.revive net n;
      Network.set_cover net n cv)
    saved;
  Network.check net;
  assert_network_matches_aig aig net

(* [eliminate] keeps its occurrence lists up to date instead of
   rebuilding them; [check] compares them with a rebuild. Two
   eliminations in a row also start the second from the maintained
   lists. *)
let test_occurrences_stay_exact =
  Helpers.qcheck_case ~count:60 "eliminate keeps occurrence lists exact"
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (int_range (-2) 60) (int_range (-2) 300))
    (fun (seed, t1, t2) ->
      let rng = Rng.create seed in
      let aig =
        if seed mod 2 = 0 then Helpers.random_aig ~inputs:8 ~ands:70 ~outputs:5 rng
        else Helpers.random_xor_aig ~inputs:8 ~gates:40 ~outputs:5 rng
      in
      let net = Network.of_aig aig in
      ignore (Network.eliminate net ~threshold:t1 ~max_cubes:64 ());
      Network.check net;
      ignore (Network.eliminate net ~threshold:t2 ~max_cubes:16 ());
      Network.check net;
      assert_network_matches_aig aig net;
      true)

(* Threshold trials with rollbacks in between, as the heterogeneous
   engine runs them: one memo shared by every call must give the same
   networks as a fresh memo per call. The cube bound varies too, since
   a substitution that fits under one bound may explode under
   another. *)
let test_shared_memo_across_rollback () =
  let rng = Rng.create 35 in
  for _ = 1 to 4 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
    let trials memo =
      let net = Network.of_aig aig in
      let mark = Network.mark net in
      let saved =
        List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net)
      in
      List.map
        (fun (threshold, max_cubes) ->
          ignore (Network.eliminate net ~threshold ~max_cubes ?memo ());
          ignore (Network.extract_kernels net ?memo ~max_passes:10 ());
          Network.check net;
          let h = Network.fold_hash net in
          Network.truncate net mark;
          List.iter
            (fun (n, cv) ->
              Network.revive net n;
              Network.set_cover net n cv)
            saved;
          h)
        [ (-1, 64); (5, 64); (50, 64); (50, 4); (5, 64); (-1, 64); (200, 4); (200, 64) ]
    in
    Alcotest.(check (list int64))
      "shared memo = no memo" (trials None) (trials (Some (Network.memo ())))
  done

let suite =
  [
    test_occurrences_stay_exact;
    Alcotest.test_case "shared memo across rollbacks" `Quick
      test_shared_memo_across_rollback;
    Alcotest.test_case "aig round-trip" `Quick test_roundtrip;
    Alcotest.test_case "eliminate preserves function" `Quick test_eliminate_preserves;
    Alcotest.test_case "extraction preserves function" `Quick test_extract_preserves;
    Alcotest.test_case "eliminate collapses chains" `Quick test_eliminate_reduces_nodes;
    Alcotest.test_case "kernel extraction shares logic" `Quick test_kernel_extraction_shares;
    Alcotest.test_case "snapshot rollback" `Quick test_snapshot_rollback;
  ]
