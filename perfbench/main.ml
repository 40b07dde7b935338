(* perfbench: times the user path of sbm — read a binary AIGER file,
   optimize it with a flow script, LUT-6 map the result and prove it
   equivalent to the input — on one workload, and prints the metrics
   as one JSON object on the last line of standard output.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 every repeat runs with tracing off and the
   end-to-end metrics are printed. With --trace 1 untraced and traced
   repeats alternate: the traced ones supply the per-layer metrics
   (self times of the Sbm_obs span forest and registry counter
   deltas), the untraced ones the baseline for obs.overhead_pct. *)

module Aig = Sbm_aig.Aig
module Aiger = Sbm_aig.Aiger
module Flow = Sbm_core.Flow
module Obs = Sbm_obs
module M = Sbm_obs.Metrics
module Lut_map = Sbm_lutmap.Lut_map
module Cec = Sbm_cec.Cec
module W = Perfbench.Workloads

(* The smallest of 1k, 2k, 5k, 10k, 20k and 50k conflicts under which
   [Cec.check] proves every design that the library default (100k)
   proves. At 2k the 300- and 500-gate control rungs come back
   unknown. *)
let cec_conflict_limit = 5_000

(* The seed the benchmark's figures were written against. Every
   workload's designs are fixed (see Workloads), so the seed is only
   reported. *)
let default_seed = 1

(* Set-up takes milliseconds, so it is timed in batches of
   [setup_batch] set-ups, [setup_batches] batches after each repeat:
   spread over the run, the samples see the host as the repeats do.
   [setup_s] is the median batch mean. *)
let setup_batches = 5

let setup_batch = 12

let now () = Int64.to_float (Obs.monotonic_ns ()) *. 1e-9

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* One design through the user path. *)

type qor = { ands : int; depth : int; luts : int; levels : int }

type verdict =
  | Proved
  | Unknown  (** the conflict budget ran out *)
  | Raised of string  (** a step raised *)
  | Wrong of string  (** counterexample or invalid LUT cover *)

type pass = {
  design : string;
  input_ands : int;
  read_s : float;
  opt_s : float;
  map_s : float;
  cec_s : float;
  qor : qor option;
  verdict : verdict;
  counters : (string * int) list;  (** registry deltas over [Flow.run] *)
}

let run_design_once ~script ~trace (d : string W.design) =
  let design = d.name and bytes = d.data in
  let blank =
    {
      design; input_ands = 0; read_s = 0.0; opt_s = 0.0; map_s = 0.0;
      cec_s = 0.0; qor = None; verdict = Proved; counters = [];
    }
  in
  try
    let t0 = now () in
    let input = Aiger.read_binary bytes in
    let t1 = now () in
    let before = if Option.is_some trace then M.counters_now () else [] in
    let output =
      match trace with
      | None -> Flow.run script input
      | Some tr ->
        let root = Obs.root ~size:(Aig.size input) tr design in
        let out = Flow.run ~obs:root script input in
        Obs.close ~size:(Aig.size out) root;
        out
    in
    let t2 = now () in
    let counters =
      if Option.is_some trace then M.counters_delta before (M.counters_now ())
      else []
    in
    let mapping = Lut_map.map ~k:6 output in
    let t3 = now () in
    let verdict = Cec.check ~conflict_limit:cec_conflict_limit input output in
    let t4 = now () in
    let verdict =
      match verdict with
      | Cec.Equivalent -> (
        match Lut_map.check output mapping with
        | () -> Proved
        | exception Failure msg -> Wrong ("invalid LUT cover: " ^ msg))
      | Cec.Unknown -> Unknown
      | Cec.Counterexample _ -> Wrong "counterexample"
    in
    {
      design; input_ands = Aig.size input; read_s = t1 -. t0;
      opt_s = t2 -. t1; map_s = t3 -. t2; cec_s = t4 -. t3;
      qor =
        Some
          {
            ands = Aig.size output; depth = Aig.depth output;
            luts = mapping.Lut_map.lut_count; levels = mapping.Lut_map.depth;
          };
      verdict; counters;
    }
  with e -> { blank with verdict = Raised (Printexc.to_string e) }

(* A design's user path is timed over at least [min_sample_s]: a small
   design runs it several times and reports the mean time of one run,
   so its flow time is not lost in timer and GC noise. A traced repeat
   runs it once, for one span tree per design. *)
let min_sample_s = 0.2

let run_design ~script ~trace d =
  let total p = p.read_s +. p.opt_s +. p.map_s +. p.cec_s in
  let rec loop acc elapsed =
    let p = run_design_once ~script ~trace d in
    let elapsed = elapsed +. total p in
    if Option.is_some trace || elapsed >= min_sample_s || p.verdict <> Proved then p :: acc
    else loop (p :: acc) elapsed
  in
  match List.rev (loop [] 0.0) with
  | [] -> assert false
  | [ p ] -> p
  | first :: _ as runs ->
    let mean f = List.fold_left (fun a p -> a +. f p) 0.0 runs /. float_of_int (List.length runs) in
    let last = List.nth runs (List.length runs - 1) in
    let verdict =
      if List.for_all (fun p -> p.qor = first.qor) runs then last.verdict
      else Wrong "QoR differs between runs of one repeat"
    in
    {
      first with
      read_s = mean (fun p -> p.read_s); opt_s = mean (fun p -> p.opt_s);
      map_s = mean (fun p -> p.map_s); cec_s = mean (fun p -> p.cec_s); verdict;
    }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one traced repeat. *)

(* The flow passes, by span name, with the end-to-end metric (and
   workload) their time should move. The workloads are named where
   the pass takes the most time in a traced run (see the "share"
   lines it prints). *)
let flow_passes =
  [
    ("baseline", "synth_s and opt_exponent on arith-baseline");
    ("gradient", "synth_s on ctrl-sbm and arith-sbm");
    ("hetero-kernel", "synth_s on ctrl-sbm and arith-sbm");
    ("mspf", "synth_s on ctrl-sbm (jobs 2) and arith-sbm (jobs 1)");
    ("collapse-decompose", "synth_s on ctrl-sbm and arith-sbm");
    ("boolean-difference", "synth_s on ctrl-sbm and arith-sbm");
    ("sat-sweep", "synth_s on arith-sbm");
  ]

let pass_metric name = "flow." ^ String.map (function '-' -> '_' | c -> c) name

let flow_pass_metric name =
  if List.mem_assoc name flow_passes then Some (pass_metric name) else None

(* Every per-layer metric with its unit and the end-to-end metric (and
   workload) it should move; the traced run prints them in this
   order. *)
let layer_catalog =
  let kernel = "synth_s and opt_exponent on arith-baseline; synth_s on ctrl-sbm" in
  let engines = "synth_s on ctrl-sbm and arith-sbm" in
  let sat = "synth_s on arith-sbm" in
  [ ("aiger.read_s", "s", "synth_s on all workloads (guard)") ]
  @ List.map (fun (p, why) -> (pass_metric p ^ "_s", "s", why)) flow_passes
  @ List.map (fun (p, _) -> (pass_metric p ^ "_gain", "ANDs", "ands_out")) flow_passes
  @ [
      ("aig.rewrite_s", "s", kernel);
      ("aig.refactor_s", "s", kernel);
      ("aig.resub_s", "s", kernel);
      ("aig.balance_s", "s", kernel);
      ("aig.gain", "ANDs", "ands_out");
      ("gradient.moves_tried", "count", "synth_s on ctrl-sbm");
      ("gradient.moves_gained", "count", "synth_s on ctrl-sbm");
      ("gradient.budget_spent", "count", "synth_s on ctrl-sbm");
      ("kernel.trials", "count", "synth_s on ctrl-sbm");
      ("kernel.improved_partitions", "count", "synth_s on ctrl-sbm");
      ("kernel.lits_saved", "literals", "synth_s on ctrl-sbm");
      ("bdd.nodes", "count", engines);
      ("bdd.cache_hit_pct", "%", engines);
      ("bdd.limit_bails", "count", engines);
      ("diff.pairs_tried", "count", engines);
      ("diff.differences_built", "count", engines);
      ("diff.rewrites", "count", engines);
      ("mspf.computed", "count", engines);
      ("mspf.substitutions", "count", engines);
      ("prefilter.survivors", "count", engines);
      ("prefilter.rejected_signature", "count", engines);
      ("prefilter.rejected_const", "count", engines);
      ("sat.conflicts", "count", sat);
      ("sat.propagations", "count", sat);
      ("sweep.sat_calls", "count", sat);
      ("sweep.merged", "count", sat);
      ("redundancy.removed", "count", sat);
      ("lutmap.map_s", "s", "synth_s on all workloads");
      ("cec.verify_s_max", "s", "verify_s and proved_pct on ctrl-sbm");
      ("cec.unknown", "count", "verify_s and proved_pct on ctrl-sbm");
      ("flow.minor_mwords", "Mwords", "synth_s and peak_heap_mb");
      ("flow.major_mwords", "Mwords", "synth_s and peak_heap_mb");
      ("obs.overhead_pct", "%", "none: traced synth_s against untraced synth_s");
    ]

(* The AIG kernel step a span's time belongs to. Collapse-decompose
   calls the refactoring kernel directly, with no child span, so its
   self time is refactoring time too. *)
let kernel_metric name =
  let has p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  if has "rewrite" then Some "aig.rewrite_s"
  else if has "refactor" || name = "collapse-decompose" then Some "aig.refactor_s"
  else if has "resub" then Some "aig.resub_s"
  else if name = "balance" then Some "aig.balance_s"
  else None

(* The per-layer values of one traced repeat, keyed by catalog name.
   A catalog name that is not computed here from the span forest or
   the design passes is a registry counter, reported under its own
   name. The table also holds each flow pass's total time, children
   included, under "<pass>_total_s": not a metric, but the share of
   [Flow.run] each pass takes. *)
let layers_of_repeat passes roots =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let seconds ns = Int64.to_float ns *. 1e-9 in
  (* [owner] is the innermost enclosing flow pass. A span that is
     neither a pass nor a kernel step (an iteration container, a
     gradient engine move) is charged to it. *)
  let rec visit owner (n : Obs.node) =
    let children =
      List.fold_left (fun a (c : Obs.node) -> Int64.add a c.wall_ns) 0L n.children
    in
    let self = seconds (max 0L (Int64.sub n.wall_ns children)) in
    let pass = flow_pass_metric n.name in
    Option.iter (fun m -> add (m ^ "_total_s") (seconds n.wall_ns)) pass;
    (match (pass, n.size_before, n.size_after) with
    | Some m, Some b, Some a -> add (m ^ "_gain") (float_of_int (b - a))
    | _ -> ());
    let kernel = kernel_metric n.name in
    Option.iter (fun m -> add m self) kernel;
    let owner = if Option.is_some pass then pass else owner in
    (match (owner, kernel, pass) with
    | Some m, None, _ | Some m, _, Some _ -> add (m ^ "_s") self
    | _ -> ());
    List.iter (visit owner) n.children
  in
  List.iter
    (fun (root : Obs.node) ->
      add "flow.total_s" (seconds root.wall_ns);
      add "flow.minor_mwords" (root.gc.minor_words /. 1e6);
      add "flow.major_mwords" (root.gc.major_words /. 1e6);
      List.iter (visit None) root.children)
    roots;
  let counter name =
    List.fold_left
      (fun a p -> a + Option.value ~default:0 (List.assoc_opt name p.counters))
      0 passes
  in
  add "aig.gain" (float_of_int (counter "gain"));
  (let hits = counter "bdd.cache_hits" and misses = counter "bdd.cache_misses" in
   if hits + misses > 0 then
     add "bdd.cache_hit_pct" (100.0 *. float_of_int hits /. float_of_int (hits + misses)));
  List.iter
    (fun p ->
      add "aiger.read_s" p.read_s;
      add "lutmap.map_s" p.map_s;
      if p.verdict = Unknown then add "cec.unknown" 1.0)
    passes;
  add "cec.verify_s_max" (List.fold_left (fun a p -> max a p.cec_s) 0.0 passes);
  List.iter
    (fun (k, _, _) ->
      if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k (float_of_int (counter k)))
    layer_catalog;
  tbl

(* ------------------------------------------------------------------ *)
(* Repeats. *)

type repeat = {
  traced : bool;
  passes : pass list;
  layers : (string, float) Hashtbl.t;
  setup : (float * bool) list;
      (** set-up batches timed after the repeat: mean time of one
          set-up, and whether every encoding equalled the first *)
}

let run_repeat ~script ~traced ~setup designs =
  let trace = if traced then Some (Obs.create ()) else None in
  let passes = List.map (run_design ~script ~trace) designs in
  let layers =
    match trace with
    | Some tr -> layers_of_repeat passes (Obs.spans tr)
    | None -> Hashtbl.create 1
  in
  (* Collect the repeat's garbage first, so that set-up runs in heap
     the program has already grown and does not grow it further. *)
  Gc.full_major ();
  let setup =
    List.init setup_batches (fun _ ->
        let t0 = now () in
        let batch = List.init setup_batch (fun _ -> setup ()) in
        let dt = (now () -. t0) /. float_of_int setup_batch in
        (dt, List.for_all (( = ) designs) batch))
  in
  { traced; passes; layers; setup }

(* Repeats the workload until the next repeat would overrun the run
   length; a traced run alternates untraced and traced repeats and
   always makes one of each. *)
let measure ~script ~seconds ~trace ~setup designs =
  let deadline = now () +. float_of_int seconds in
  let rec loop acc i =
    let traced = trace && i mod 2 = 1 in
    let t0 = now () in
    let r = run_repeat ~script ~traced ~setup designs in
    let t1 = now () in
    let acc = r :: acc in
    if (trace && i = 0) || t1 +. (t1 -. t0) <= deadline then loop acc (i + 1)
    else List.rev acc
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let synth_s r = sum (fun p -> p.read_s +. p.opt_s +. p.map_s) r.passes

let verify_s r = sum (fun p -> p.cec_s) r.passes

let verdict_string = function
  | Proved -> "proved"
  | Unknown -> "unknown"
  | Raised msg -> "raised: " ^ msg
  | Wrong msg -> "WRONG: " ^ msg

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit_) ->
         let value = if Float.is_finite value then Printf.sprintf "%.17g" value else "null" in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name value unit_)
       metrics)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 0
  and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N run seed (reported; the designs are fixed)");
      ("--seconds", Arg.Set_int seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail_usage ("unexpected " ^ a)) ""
   with Arg.Bad msg | Arg.Help msg -> fail_usage (String.trim msg));
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      fail_usage
        (Printf.sprintf "unknown workload %S (known: %s)" !workload
           (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
  in
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let jobs = min w.W.jobs (Domain.recommended_domain_count ()) in
  Sbm_par.Jobs.set jobs;
  (* Set-up: generate and encode. The repeats run on the bytes of the
     first set-up; the later ones are timed, compared and dropped. *)
  let setup () = W.encode (w.W.designs ()) in
  let designs = setup () in
  let repeats = measure ~script:w.W.script ~seconds:!seconds ~trace ~setup designs in
  let setup_s = median (List.concat_map (fun r -> List.map fst r.setup) repeats) in
  let setup_stable = List.for_all (fun r -> List.for_all snd r.setup) repeats in
  let untraced = List.filter (fun r -> not r.traced) repeats in
  let traced = List.filter (fun r -> r.traced) repeats in
  let all_passes = List.concat_map (fun r -> r.passes) repeats in
  let attempted = List.length all_passes in
  let failed =
    List.length
      (List.filter
         (fun p -> match p.verdict with Unknown | Raised _ -> true | _ -> false)
         all_passes)
  in
  let proved = List.length (List.filter (fun p -> p.verdict = Proved) all_passes) in
  let wrong = List.filter (fun p -> match p.verdict with Wrong _ -> true | _ -> false) all_passes in
  (* QoR must repeat exactly, traced or not. *)
  let first = List.hd repeats in
  let qor_stable =
    List.for_all
      (fun r -> List.for_all2 (fun a b -> a.qor = b.qor) first.passes r.passes)
      repeats
  in
  let correct = wrong = [] && qor_stable && setup_stable in
  (* Report. *)
  Printf.printf
    "perfbench workload=%s flow=%s jobs=%d seed=%d seconds=%d trace=%d \
     cec_conflict_limit=%d repeats=%d (traced %d)\n"
    w.W.name (Flow.to_string w.W.script) jobs !seed !seconds (Bool.to_int trace)
    cec_conflict_limit (List.length repeats) (List.length traced);
  Printf.printf "why %s\n" w.W.why;
  (* Median flow time of each design over the untraced repeats. *)
  let opt_s =
    List.mapi
      (fun i (d : string W.design) ->
        (d.name, median (List.map (fun r -> (List.nth r.passes i).opt_s) untraced)))
      designs
  in
  List.iter2
    (fun (d : string W.design) p ->
      let q = Option.value p.qor ~default:{ ands = 0; depth = 0; luts = 0; levels = 0 } in
      Printf.printf
        "design %-12s digest=%s ands_in=%d ands_out=%d depth_out=%d lut6=%d \
         lut6_levels=%d flow_s=%.3f verdict=%s\n"
        d.name (W.digest d.data) p.input_ands q.ands q.depth q.luts q.levels
        (List.assoc d.name opt_s) (verdict_string p.verdict))
    designs first.passes;
  List.iter
    (fun p -> Printf.eprintf "perfbench: design %s: %s\n" p.design (verdict_string p.verdict))
    wrong;
  if not qor_stable then prerr_endline "perfbench: QoR differs between repeats";
  if not setup_stable then prerr_endline "perfbench: set-up encodings differ";
  let qor_sum f =
    float_of_int
      (List.fold_left
         (fun a p -> a + match p.qor with Some q -> f q | None -> 0)
         0 first.passes)
  in
  (* One point per design: input size against median flow time. *)
  let opt_exponent =
    let points =
      List.filter_map
        (fun p ->
          if p.input_ands > 0 then
            Some (float_of_int p.input_ands, List.assoc p.design opt_s)
          else None)
        first.passes
    in
    try Some (Perfbench.Fit.exponent points) with Invalid_argument msg ->
      prerr_endline ("perfbench: no scaling exponent: " ^ msg);
      None
  in
  let correct = correct && Option.is_some opt_exponent in
  let opt_exponent = Option.value opt_exponent ~default:nan in
  let synth = median (List.map synth_s untraced) in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("synth_s", synth, "s");
      ("verify_s", median (List.map verify_s untraced), "s");
      ("opt_exponent", opt_exponent, "1");
      ("ands_out", qor_sum (fun q -> q.ands), "ANDs");
      ("depth_out", qor_sum (fun q -> q.depth), "levels");
      ("lut6_out", qor_sum (fun q -> q.luts), "LUTs");
      ("lut6_levels_out", qor_sum (fun q -> q.levels), "levels");
      ( "peak_heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
        "MB" );
      ("proved_pct", pct proved attempted, "%");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "metric %-16s %14.6f %s\n" n v u) end_to_end;
  Printf.printf "metric %-16s %14.6f %%\n" "failed_pct" (pct failed attempted);
  let reported =
    if not trace then end_to_end
    else begin
      let layer k = median (List.map (fun r -> Hashtbl.find r.layers k) traced) in
      let traced_synth = median (List.map synth_s traced) in
      let overhead = if synth > 0.0 then 100.0 *. ((traced_synth /. synth) -. 1.0) else 0.0 in
      let reported =
        List.map
          (fun (k, unit_, moves) ->
            let v = if k = "obs.overhead_pct" then overhead else layer k in
            Printf.printf "layer %-28s %14.6f %-8s -> %s\n" k v unit_ moves;
            (k, v, unit_))
          layer_catalog
      in
      (* Each pass's share of [Flow.run], children included: which
         layers the workload's time goes to. *)
      List.iter
        (fun (p, _) ->
          let m = pass_metric p in
          let share r =
            let get k = Option.value ~default:0.0 (Hashtbl.find_opt r.layers k) in
            let total = get "flow.total_s" and t = get (m ^ "_total_s") in
            if total > 0.0 then 100.0 *. t /. total else 0.0
          in
          Printf.printf "share %-28s %6.1f %% of Flow.run\n" m
            (median (List.map share traced)))
        flow_passes;
      reported
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics reported);
  exit (if correct then 0 else 1)
