(* Cross-cutting flow robustness: degenerate networks, edge shapes,
   and end-to-end LUT/ASIC pipelines on structured circuits. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

let all_engines =
  [
    ("rewrite", fun aig -> ignore (Sbm_aig.Rewrite.run aig); aig);
    ("refactor", fun aig -> ignore (Sbm_aig.Refactor.run aig); aig);
    ("resub", fun aig -> ignore (Sbm_aig.Resub.run aig); aig);
    ("balance", fun aig -> Sbm_aig.Balance.run aig);
    ("diff", fun aig -> ignore (Sbm_core.Diff_resub.optimize aig); aig);
    ("mspf", fun aig -> ignore (Sbm_core.Mspf.optimize aig); aig);
    ("hetero", fun aig -> fst (Sbm_core.Hetero_kernel.run aig));
    ("sweep", fun aig -> fst (Sbm_sat.Sweep.run aig));
    ("redundancy", fun aig -> ignore (Sbm_sat.Redundancy.run aig); aig);
    ("baseline", fun aig -> Sbm_core.Flow.baseline aig);
  ]

let degenerate_networks () =
  (* A zoo of edge-case shapes every engine must survive. *)
  let empty () =
    let aig = Aig.create () in
    ignore (Aig.add_input aig);
    aig
  in
  let const_outputs () =
    let aig = Aig.create () in
    ignore (Aig.add_input aig);
    ignore (Aig.add_output aig Aig.const0);
    ignore (Aig.add_output aig Aig.const1);
    aig
  in
  let wire () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    ignore (Aig.add_output aig a);
    ignore (Aig.add_output aig (Aig.lnot a));
    aig
  in
  let single_and () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    ignore (Aig.add_output aig (Aig.band aig a b));
    aig
  in
  let duplicate_outputs () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    let x = Aig.band aig a b in
    ignore (Aig.add_output aig x);
    ignore (Aig.add_output aig x);
    ignore (Aig.add_output aig (Aig.lnot x));
    aig
  in
  let deep_chain () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    let acc = ref a in
    for _ = 1 to 40 do
      acc := Aig.bxor aig !acc b
    done;
    ignore (Aig.add_output aig !acc);
    aig
  in
  [
    ("empty", empty ()); ("const outputs", const_outputs ()); ("wire", wire ());
    ("single and", single_and ()); ("duplicate outputs", duplicate_outputs ());
    ("deep chain", deep_chain ());
  ]

let test_engines_on_degenerate () =
  List.iter
    (fun (shape, aig) ->
      List.iter
        (fun (engine, run) ->
          let original = Aig.copy aig in
          let result = run (Aig.copy aig) in
          Aig.check result;
          Helpers.assert_equiv_exhaustive
            ~msg:(Printf.sprintf "%s on %s" engine shape)
            original result)
        all_engines)
    (degenerate_networks ())

let test_full_flow_on_structured () =
  (* End-to-end: generator -> flow -> LUT map -> ASIC map, all checked. *)
  List.iter
    (fun (b, scale) ->
      let aig = Sbm_epfl.Epfl.generate ~scale b in
      let optimized = Sbm_core.Flow.sbm_once ~effort:Sbm_core.Flow.Low aig in
      (match Sbm_cec.Cec.check aig optimized with
      | Sbm_cec.Cec.Equivalent -> ()
      | _ -> Alcotest.failf "flow broke %s" (Sbm_epfl.Epfl.name b));
      let mapping = Sbm_lutmap.Lut_map.map optimized in
      Sbm_lutmap.Lut_map.check optimized mapping;
      let netlist = Sbm_asic.Mapper.map optimized in
      Sbm_asic.Netlist.check netlist;
      (* Functional spot-check of the mapped netlist. *)
      let rng = Rng.create 77 in
      for _ = 1 to 16 do
        let bits =
          Array.init (Aig.num_inputs optimized) (fun _ -> Rng.bool rng)
        in
        if Sbm_aig.Sim.eval optimized bits <> Sbm_asic.Netlist.eval netlist bits
        then Alcotest.failf "mapped netlist differs for %s" (Sbm_epfl.Epfl.name b)
      done)
    [ (Sbm_epfl.Epfl.Int2float, 1.0); (Sbm_epfl.Epfl.Ctrl, 1.0); (Sbm_epfl.Epfl.Sin, 0.25) ]

let test_partition_limit_extremes () =
  let rng = Rng.create 405 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
  (* Tiny limits: many partitions, engines still sound. *)
  let limits =
    { Sbm_partition.Partition.max_levels = 1; max_nodes = 2; max_leaves = 4 }
  in
  let parts = Sbm_partition.Partition.compute aig limits in
  Alcotest.(check bool) "many partitions" true (List.length parts > 5);
  let original = Aig.copy aig in
  let config = { Sbm_core.Diff_resub.default_config with limits } in
  ignore (Sbm_core.Diff_resub.optimize ~config aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"tiny partitions" original aig

let test_flow_idempotent_safety () =
  (* Applying the flow twice keeps equivalence and never grows. *)
  let rng = Rng.create 406 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let once = Sbm_core.Flow.sbm_once ~effort:Sbm_core.Flow.Low aig in
  let twice = Sbm_core.Flow.sbm_once ~effort:Sbm_core.Flow.Low once in
  Helpers.assert_equiv_exhaustive ~msg:"idempotent safety" aig twice;
  Alcotest.(check bool) "no growth" true (Aig.size twice <= Aig.size once)

let test_gradient_move_log () =
  let rng = Rng.create 407 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
  let _, stats =
    Sbm_core.Gradient.run
      ~config:{ Sbm_core.Gradient.default_config with budget = 20 }
      aig
  in
  (* The move log is chronological and every recorded gain is >= 0
     (moves revert losing changes). *)
  List.iter
    (fun (name, gain) ->
      Alcotest.(check bool) (name ^ " gain >= 0") true (gain >= 0))
    stats.Sbm_core.Gradient.move_log;
  Alcotest.(check bool) "log nonempty" true (stats.Sbm_core.Gradient.move_log <> [])

(* The baseline flow's exact output on two small arithmetic designs,
   read back from binary AIGER as a user's file would be. Kernel
   speed-ups must not move a single node. *)
let test_baseline_output_pinned () =
  List.iter
    (fun (name, scale, bench, size, depth, hash) ->
      let design = Sbm_epfl.Epfl.generate ~scale bench in
      let input = Sbm_aig.Aiger.read_binary (Sbm_aig.Aiger.write_binary design) in
      let out = Sbm_core.Flow.run Sbm_core.Flow.Baseline input in
      Alcotest.(check int) (name ^ " size") size (Aig.size out);
      Alcotest.(check int) (name ^ " depth") depth (Aig.depth out);
      Alcotest.(check string) (name ^ " fold_hash") hash
        (Printf.sprintf "%016Lx" (Aig.fold_hash out)))
    [
      ("sqrt8", 0.0625, Sbm_epfl.Epfl.Sqrt, 51, 19, "e03dbe247bd4b630");
      ("log24", 0.125, Sbm_epfl.Epfl.Log2, 67, 24, "b71c76eb7fbc3353");
    ]

(* The sbm-low flow's exact output on a small control design, at jobs
   1 and 2. Speed-ups of the SOP kernel engine must not move a node,
   and the partition-parallel passes must merge to the same network. *)
let test_sbm_low_output_pinned () =
  let design =
    Sbm_epfl.Epfl.random_control ~seed:100 ~inputs:10 ~outputs:8 ~gates:100
  in
  List.iter
    (fun jobs ->
      let saved = Sbm_par.Jobs.get () in
      Sbm_par.Jobs.set jobs;
      let out =
        Fun.protect
          ~finally:(fun () -> Sbm_par.Jobs.set saved)
          (fun () -> Sbm_core.Flow.run (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) design)
      in
      let tag = Printf.sprintf "jobs %d " jobs in
      Alcotest.(check int) (tag ^ "size") 49 (Aig.size out);
      Alcotest.(check int) (tag ^ "depth") 11 (Aig.depth out);
      Alcotest.(check string) (tag ^ "fold_hash") "b8c2badf7768d9f5"
        (Printf.sprintf "%016Lx" (Aig.fold_hash out)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "all engines on degenerate shapes" `Quick test_engines_on_degenerate;
    Alcotest.test_case "generator -> flow -> mappers" `Slow test_full_flow_on_structured;
    Alcotest.test_case "extreme partition limits" `Quick test_partition_limit_extremes;
    Alcotest.test_case "flow applied twice" `Slow test_flow_idempotent_safety;
    Alcotest.test_case "gradient move log" `Quick test_gradient_move_log;
    Alcotest.test_case "baseline output pinned" `Quick test_baseline_output_pinned;
    Alcotest.test_case "sbm-low output pinned" `Quick test_sbm_low_output_pinned;
  ]
