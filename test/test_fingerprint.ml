(* The determinism audit trail: Aig.fold_hash canonicality (the
   structural component), trail chaining and labels, the
   SBM_NONDET_INJECT perturbation hook, the divergence auditor's
   alignment/exit-code contract, and the JSONL stream round-trip. *)

module Aig = Sbm_aig.Aig
module Audit = Sbm_report.Audit
module FP = Sbm_obs.Fingerprint
module Boundary = Sbm_obs.Boundary
module Obs = Sbm_obs
module Rng = Sbm_util.Rng

(* --- fold_hash: canonical under representation changes --- *)

(* The hash must depend only on the live cone plus the input/output
   counts: copy, compact (which renumbers and reorders fanins) and
   dead-node garbage leave it fixed; any functional edit moves it. *)
let test_fold_hash_canonical =
  Helpers.qcheck_case ~count:40 "fold_hash: representation-independent"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
      let h = Aig.fold_hash aig in
      if Aig.fold_hash (Aig.copy aig) <> h then
        QCheck2.Test.fail_report "copy changed the hash";
      let compacted, _ = Aig.compact aig in
      if Aig.fold_hash compacted <> h then
        QCheck2.Test.fail_report "compact changed the hash";
      (* Garbage: a chain of AND nodes never registered as outputs.
         Strashing may resolve some steps to existing (live) nodes —
         either way the live cone is untouched. *)
      let g = Aig.copy aig in
      let i0 = Aig.input_lit g 0
      and i1 = Aig.input_lit g 1
      and i2 = Aig.input_lit g 2 in
      let d0 = Aig.band g (Aig.lnot i0) (Aig.lnot i1) in
      let d1 = Aig.band g d0 (Aig.lnot i2) in
      ignore (Aig.band g d1 (Aig.lnot d0));
      if Aig.fold_hash g <> h then
        QCheck2.Test.fail_report "dead nodes changed the hash";
      (* One-gate functional edit: complementing an output changes the
         function, so it must change the hash. *)
      let e = Aig.copy aig in
      Aig.set_output e 0 (Aig.lnot (Aig.output_lit e 0));
      if Aig.fold_hash e = h then
        QCheck2.Test.fail_report "output complement left the hash fixed";
      true)

let test_fold_hash_distinguishes () =
  let build f =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    ignore (Aig.add_output aig (f aig a b));
    aig
  in
  let h_and = Aig.fold_hash (build Aig.band) in
  let h_or = Aig.fold_hash (build Aig.bor) in
  let h_xor = Aig.fold_hash (build Aig.bxor) in
  Alcotest.(check bool) "and <> or" true (h_and <> h_or);
  Alcotest.(check bool) "and <> xor" true (h_and <> h_xor);
  Alcotest.(check bool) "or <> xor" true (h_or <> h_xor);
  (* Operand order is canonicalized away. *)
  let h_and_rev =
    Aig.fold_hash
      (build (fun aig a b -> Aig.band aig b a))
  in
  Alcotest.(check bool) "band a b = band b a" true (h_and = h_and_rev)

(* --- trail mechanics --- *)

(* Pass and merge boundaries reach the trail through [Boundary]. *)
let pass_end structure =
  Boundary.finish
    ~measure:
      { Boundary.size = 0; depth = 0; dead_node_pct = 0;
        structure = (fun () -> structure); lut_qor = (fun () -> (-1, -1)) }
    ()

let merge engine partition structure =
  Boundary.merge ~engine ~partition ~structure:(fun () -> structure) []

let with_trail f =
  FP.enable ();
  Fun.protect ~finally:FP.disable f

let test_trail_labels () =
  with_trail (fun () ->
      Boundary.start "iteration-1";
      Boundary.start "mspf";
      merge "mspf" 0 3L;
      merge "mspf" 1 4L;
      pass_end 5L;
      pass_end 6L;
      let rs = FP.records () in
      Alcotest.(check int) "record count" 4 (List.length rs);
      Alcotest.(check (list int)) "seq in trail order" [ 0; 1; 2; 3 ]
        (List.map (fun r -> r.FP.seq) rs);
      Alcotest.(check (list string)) "labels"
        [
          "iteration-1/mspf/mspf-partition-0";
          "iteration-1/mspf/mspf-partition-1";
          "iteration-1/mspf";
          "iteration-1";
        ]
        (List.map (fun r -> r.FP.label) rs);
      Alcotest.(check (list string)) "kinds"
        [ "merge"; "merge"; "pass"; "pass" ]
        (List.map (fun r -> FP.kind_to_string r.FP.kind) rs))

(* Two trails that agree on a prefix agree on its chain values; a
   difference in record 0 flips every later chain even when the later
   records' own components are identical. *)
let test_chain_commits_to_prefix () =
  let trail s0 =
    with_trail (fun () ->
        Boundary.start "a";
        pass_end s0;
        Boundary.start "b";
        pass_end 2L;
        FP.records ())
  in
  let t1 = trail 1L and t1' = trail 1L and t9 = trail 9L in
  let chains t = List.map (fun r -> r.FP.chain) t in
  Alcotest.(check bool) "same inputs, same chains" true
    (chains t1 = chains t1');
  let r1 = List.nth t1 1 and r9 = List.nth t9 1 in
  Alcotest.(check bool) "record 1 components identical" true
    (r1.FP.structure = r9.FP.structure
    && r1.FP.counters_digest = r9.FP.counters_digest
    && r1.FP.label = r9.FP.label);
  Alcotest.(check bool) "record 1 chains diverge" true
    (r1.FP.chain <> r9.FP.chain)

let test_disabled_is_noop () =
  FP.disable ();
  Alcotest.(check int64) "record_pass returns 0 while disabled" 0L
    (FP.record_pass ~label:"ghost" ~structure:1L);
  Boundary.start "ghost";
  merge "ghost" 0 1L;
  pass_end 1L;
  Alcotest.(check int) "no records while disabled" 0
    (List.length (FP.records ()))

(* --- the injection hook plants a localizable divergence --- *)

let test_injection_localized () =
  let run () =
    with_trail (fun () ->
        Boundary.start "mspf";
        merge "mspf" 0 10L;
        merge "mspf" 1 11L;
        merge "mspf" 2 12L;
        pass_end 13L;
        FP.records ())
  in
  let clean = run () in
  FP.inject := Some ("mspf", 1);
  let dirty =
    Fun.protect ~finally:(fun () -> FP.inject := None) run
  in
  match Audit.compare_trails clean dirty with
  | Audit.Identical _ -> Alcotest.fail "injected divergence went unnoticed"
  | Audit.Diverged d ->
    Alcotest.(check int) "diverges at the injected partition" 1 d.Audit.index;
    Alcotest.(check bool) "structure component named" true
      (List.mem Audit.Structure d.Audit.components);
    let desc = Audit.describe d in
    Alcotest.(check bool)
      (Printf.sprintf "describe names the boundary (%s)" desc)
      true
      (let sub = "mspf-partition-1" in
       let n = String.length sub in
       let rec has i =
         i + n <= String.length desc && (String.sub desc i n = sub || has (i + 1))
       in
       has 0)

(* --- auditor alignment and exit codes --- *)

let test_audit_identical_and_truncated () =
  let trail () =
    with_trail (fun () ->
        Boundary.start "a";
        pass_end 1L;
        Boundary.start "b";
        pass_end 2L;
        FP.records ())
  in
  let t = trail () and t' = trail () in
  (match Audit.compare_trails t t' with
  | Audit.Identical n -> Alcotest.(check int) "identical length" 2 n
  | Audit.Diverged _ -> Alcotest.fail "equal trails reported diverged");
  Alcotest.(check int) "exit 0 when identical" 0
    (Audit.exit_code (Audit.compare_trails t t'));
  (* A truncated trail diverges at the end of the shorter one. *)
  let short = [ List.hd t ] in
  (match Audit.compare_trails t short with
  | Audit.Identical _ -> Alcotest.fail "truncation went unnoticed"
  | Audit.Diverged d ->
    Alcotest.(check int) "diverges where B ends" 1 d.Audit.index;
    Alcotest.(check bool) "A side present" true (d.Audit.a <> None);
    Alcotest.(check bool) "B side absent" true (d.Audit.b = None));
  Alcotest.(check int) "exit 1 when diverged" 1
    (Audit.exit_code (Audit.compare_trails t short));
  match Audit.compare_trails [] [] with
  | Audit.Identical n -> Alcotest.(check int) "empty trails identical" 0 n
  | Audit.Diverged _ -> Alcotest.fail "empty trails reported diverged"

(* --- JSONL stream round-trip --- *)

let test_jsonl_roundtrip () =
  let rs =
    with_trail (fun () ->
        Boundary.start "iteration-1";
        Boundary.start "diff";
        merge "diff" 0 7L;
        pass_end 8L;
        pass_end 9L;
        FP.records ())
  in
  List.iter
    (fun r ->
      match Audit.record_of_json (FP.record_to_json r) with
      | None -> Alcotest.failf "unparsable: %s" (FP.record_to_json r)
      | Some p ->
        Alcotest.(check int) "seq" r.FP.seq p.FP.seq;
        Alcotest.(check string) "label" r.FP.label p.FP.label;
        Alcotest.(check string) "kind" (FP.kind_to_string r.FP.kind)
          (FP.kind_to_string p.FP.kind);
        Alcotest.(check int64) "structure" r.FP.structure p.FP.structure;
        Alcotest.(check int64) "counters digest" r.FP.counters_digest
          p.FP.counters_digest;
        Alcotest.(check int64) "chain" r.FP.chain p.FP.chain;
        Alcotest.(check (list (pair string int))) "counter vector"
          r.FP.counters p.FP.counters)
    rs;
  (* A torn final line (killed run) is skipped, not fatal. *)
  let path = Filename.temp_file "sbm_fp" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iteri
        (fun i r ->
          if i < 2 then begin
            output_string oc (FP.record_to_json r);
            output_char oc '\n'
          end)
        rs;
      output_string oc "{\"seq\":2,\"kind\":\"pa";
      close_out oc;
      match Audit.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok loaded ->
        Alcotest.(check int) "torn line skipped" 2 (List.length loaded));
  match Audit.load "/nonexistent/sbm_fp.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreadable file must be an Error"

(* --- end to end: a flow run streams a trail and the auditor pins an
   injected divergence to the exact merge boundary --- *)

let run_flow_trail () =
  with_trail (fun () ->
      let rng = Rng.create 42 in
      let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
      let trace = Obs.create () in
      let root =
        Obs.root ~size:(Aig.size aig) ~depth:(Aig.depth aig) trace "t"
      in
      let optimized =
        Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig
      in
      Obs.close ~size:(Aig.size optimized) ~depth:(Aig.depth optimized) root;
      FP.records ())

(* "engine-partition-N" from the last label segment. *)
let parse_merge_label label =
  let seg =
    match String.rindex_opt label '/' with
    | None -> label
    | Some i -> String.sub label (i + 1) (String.length label - i - 1)
  in
  let marker = "-partition-" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length seg then None
    else if String.sub seg i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let engine = String.sub seg 0 i in
    let n = String.sub seg (i + mlen) (String.length seg - i - mlen) in
    Option.map (fun n -> (engine, n)) (int_of_string_opt n)

let test_flow_injection_end_to_end () =
  let clean = run_flow_trail () in
  Alcotest.(check bool) "flow produced a trail" true (clean <> []);
  let merge =
    match List.find_opt (fun r -> r.FP.kind = FP.Merge) clean with
    | Some r -> r
    | None -> Alcotest.fail "flow produced no merge boundary"
  in
  let engine, partition =
    match parse_merge_label merge.FP.label with
    | Some p -> p
    | None -> Alcotest.failf "unparsable merge label %s" merge.FP.label
  in
  FP.inject := Some (engine, partition);
  let dirty =
    Fun.protect ~finally:(fun () -> FP.inject := None) run_flow_trail
  in
  match Audit.compare_trails clean dirty with
  | Audit.Identical _ -> Alcotest.fail "injected flow divergence unnoticed"
  | Audit.Diverged d ->
    Alcotest.(check int)
      (Printf.sprintf "localized to the first %s partition %d boundary" engine
         partition)
      merge.FP.seq d.Audit.index;
    Alcotest.(check bool) "structure component named" true
      (List.mem Audit.Structure d.Audit.components)

let suite =
  [
    test_fold_hash_canonical;
    Alcotest.test_case "fold_hash: distinguishes functions." `Quick
      test_fold_hash_distinguishes;
    Alcotest.test_case "trail: boundary labels and order." `Quick
      test_trail_labels;
    Alcotest.test_case "trail: chain commits to the prefix." `Quick
      test_chain_commits_to_prefix;
    Alcotest.test_case "trail: disabled is a no-op." `Quick
      test_disabled_is_noop;
    Alcotest.test_case "inject: divergence localized to the partition." `Quick
      test_injection_localized;
    Alcotest.test_case "audit: alignment and exit codes." `Quick
      test_audit_identical_and_truncated;
    Alcotest.test_case "jsonl: round-trip and torn-line tolerance." `Quick
      test_jsonl_roundtrip;
    Alcotest.test_case "flow: audit pins an injected merge divergence." `Slow
      test_flow_injection_end_to_end;
  ]
