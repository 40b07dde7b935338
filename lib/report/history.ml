(* Run-over-run ledger history (sbm bench --ledger / sbm history).

   The ledger file is append-only JSONL: one line per bench run,
   wrapping the full QoR snapshot (passes included) with run identity
   — timestamp, commit, flow, job count. Append-only means a torn
   final line is possible if a run dies mid-write; [load] skips
   unparsable lines instead of failing, like the status-file reader. *)

module Snapshot = Sbm_obs.Snapshot

let schema_version = 1

type run = {
  t : float; (* unix seconds *)
  commit : string;
  flow : string;
  jobs : int;
  snapshot : Snapshot.t;
}

let json_escape = Sbm_util.Json_escape.string

let run_to_json r =
  Printf.sprintf
    "{\"schema\":%d,\"t\":%.0f,\"commit\":\"%s\",\"flow\":\"%s\",\"jobs\":%d,\"snapshot\":%s}"
    schema_version r.t (json_escape r.commit) (json_escape r.flow) r.jobs
    (Snapshot.to_json r.snapshot)

let append_run ~path r =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | exception Sys_error msg -> Error msg
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (run_to_json r);
        output_char oc '\n');
    Ok ()

let run_of_json line =
  match Json.parse line with
  | exception Json.Bad _ -> None
  | j -> (
    match Json.(to_int (member "schema" j)) with
    | Some v when v > schema_version -> None
    | _ -> (
      match Json.member "snapshot" j with
      | None -> None
      | Some sj -> (
        (* Reuse the snapshot parser on the nested document: re-render
           is avoided by parsing the raw substring — Json has no
           printer, so round-trip through the typed form instead. *)
        match Report.snapshot_of_json_value sj with
        | Error _ -> None
        | Ok snapshot ->
          Some
            {
              t = Option.value ~default:0.0 Json.(to_float (member "t" j));
              commit =
                Option.value ~default:"" Json.(to_str (member "commit" j));
              flow = Option.value ~default:"" Json.(to_str (member "flow" j));
              jobs = Option.value ~default:1 Json.(to_int (member "jobs" j));
              snapshot;
            })))

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Ok
      (String.split_on_char '\n' s
      |> List.filter_map (fun line ->
             let line = String.trim line in
             if line = "" then None else run_of_json line))

(* --- trend tables --- *)

let qor_metrics = [ "size"; "depth"; "luts"; "levels"; "wall_ms" ]

(* The metric value of one entry: a QoR column, wall time, or any
   snapshot counter by name. *)
let metric_value metric (e : Snapshot.entry) =
  match metric with
  | "size" -> Some (float_of_int e.qor.Snapshot.size)
  | "depth" -> Some (float_of_int e.qor.Snapshot.depth)
  | "luts" -> Some (float_of_int e.qor.Snapshot.luts)
  | "levels" -> Some (float_of_int e.qor.Snapshot.levels)
  | "wall_ms" -> Some e.wall_ms
  | name ->
    Option.map float_of_int (List.assoc_opt name e.Snapshot.counters)

(* Every metric name [metric_value] can resolve against these runs:
   the QoR columns plus the union of snapshot counter names. Drives
   the unknown-metric error in `sbm history --metric`. *)
let available_metrics runs =
  let counters =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (e : Snapshot.entry) -> List.map fst e.Snapshot.counters)
          r.snapshot.Snapshot.entries)
      runs
  in
  qor_metrics @ List.sort_uniq String.compare counters

let time_str t =
  if t <= 0.0 then "-"
  else
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min

let short_commit c = if String.length c > 9 then String.sub c 0 9 else c

(* One row per run (append order), one column per bench; a cell whose
   value grew against the previous run carries a '!' regression flag
   (every tracked metric is lower-is-better). *)
let table ?bench ?(metric = "size") runs =
  let runs =
    match bench with
    | None -> runs
    | Some b ->
      List.map
        (fun r ->
          {
            r with
            snapshot =
              {
                r.snapshot with
                Snapshot.entries =
                  List.filter
                    (fun (e : Snapshot.entry) -> e.Snapshot.bench = b)
                    r.snapshot.Snapshot.entries;
              };
          })
        runs
  in
  let benches =
    List.sort_uniq String.compare
      (List.concat_map
         (fun r ->
           List.map
             (fun (e : Snapshot.entry) -> e.Snapshot.bench)
             r.snapshot.Snapshot.entries)
         runs)
  in
  let cell prev r b =
    match Snapshot.find r.snapshot b with
    | None -> ("-", None)
    | Some e -> (
      match metric_value metric e with
      | None -> ("-", None)
      | Some v ->
        let flag =
          match prev with
          | Some pv when v > pv -> "!"
          | _ -> ""
        in
        let s =
          if metric = "wall_ms" then Printf.sprintf "%.1f%s" v flag
          else Printf.sprintf "%.0f%s" v flag
        in
        (s, Some v))
  in
  let b = Buffer.create 4096 in
  let colw = max 8 (List.fold_left (fun a s -> max a (String.length s)) 0 benches + 1) in
  Buffer.add_string b
    (Printf.sprintf "metric: %s (lower is better; '!' = worse than previous run)\n"
       metric);
  Buffer.add_string b
    (Printf.sprintf "%-17s %-9s %-8s %-4s" "run (utc)" "commit" "flow" "jobs");
  List.iter (fun bn -> Buffer.add_string b (Printf.sprintf " %*s" colw bn)) benches;
  Buffer.add_char b '\n';
  let prev : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-17s %-9s %-8s %-4d" (time_str r.t)
           (short_commit r.commit) r.flow r.jobs);
      List.iter
        (fun bn ->
          let s, v = cell (Hashtbl.find_opt prev bn) r bn in
          (match v with
          | Some v -> Hashtbl.replace prev bn v
          | None -> ());
          Buffer.add_string b (Printf.sprintf " %*s" colw s))
        benches;
      Buffer.add_char b '\n')
    runs;
  (* Regression flagging for the gate: last run vs the one before. *)
  let arr = Array.of_list runs in
  let n = Array.length arr in
  if n >= 2 then begin
    let last = arr.(n - 1) and before = arr.(n - 2) in
    let regressed =
      List.filter_map
        (fun bn ->
          match (Snapshot.find before.snapshot bn, Snapshot.find last.snapshot bn) with
          | Some oe, Some ne -> (
            match (metric_value metric oe, metric_value metric ne) with
            | Some ov, Some nv when nv > ov ->
              Some (Printf.sprintf "%s (%g -> %g)" bn ov nv)
            | _ -> None)
          | _ -> None)
        benches
    in
    if regressed <> [] then
      Buffer.add_string b
        (Printf.sprintf "last run regressed on %s: %s\n" metric
           (String.concat ", " regressed))
    else
      Buffer.add_string b
        (Printf.sprintf "last run: no %s regressions vs previous\n" metric)
  end;
  Buffer.contents b
