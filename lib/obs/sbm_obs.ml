module Flight_recorder = Flight_recorder
module Watchdog = Watchdog
module Metrics = Metrics
module Status = Status
module Ledger = Ledger
module Fingerprint = Fingerprint
module Boundary = Boundary

external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]

type rec_ = {
  r_name : string;
  r_t0 : int64;
  mutable r_t1 : int64; (* 0L while open *)
  mutable r_size0 : int;
  mutable r_size1 : int; (* -1 = unset *)
  mutable r_depth0 : int;
  mutable r_depth1 : int;
  r_gc0 : Gc.stat; (* quick_stat at open *)
  mutable r_gc1 : Gc.stat option; (* quick_stat at close *)
  mutable r_counters : (string, int ref) Hashtbl.t option;
  mutable r_children : rec_ list; (* reversed *)
}

type span = Noop | Span of rec_

type trace = { mutable roots : rec_ list (* reversed *) }

let null = Noop
let enabled = function Noop -> false | Span _ -> true

let create () = { roots = [] }

let fresh ?(size = -1) ?(depth = -1) name =
  {
    r_name = name;
    r_t0 = monotonic_ns ();
    r_t1 = 0L;
    r_size0 = size;
    r_size1 = -1;
    r_depth0 = depth;
    r_depth1 = -1;
    r_gc0 = Gc.quick_stat ();
    r_gc1 = None;
    r_counters = None;
    r_children = [];
  }

(* Live spans double as the flight recorder's notion of "where the
   run is": open/close notify its span stack (one branch when the
   recorder is off), so a crash dump can report the open spans without
   freezing the trace. *)
let root ?size ?depth trace name =
  let r = fresh ?size ?depth name in
  trace.roots <- r :: trace.roots;
  if Flight_recorder.enabled () then Flight_recorder.span_opened name;
  Span r

let span ?size ?depth parent name =
  match parent with
  | Noop -> Noop
  | Span p ->
    let r = fresh ?size ?depth name in
    p.r_children <- r :: p.r_children;
    if Flight_recorder.enabled () then Flight_recorder.span_opened name;
    Span r

let close ?size ?depth = function
  | Noop -> ()
  | Span r ->
    if r.r_t1 = 0L then begin
      r.r_t1 <- monotonic_ns ();
      r.r_gc1 <- Some (Gc.quick_stat ());
      if Flight_recorder.enabled () then Flight_recorder.span_closed r.r_name
    end;
    (match size with Some s -> r.r_size1 <- s | None -> ());
    (match depth with Some d -> r.r_depth1 <- d | None -> ())

let add span name n =
  match span with
  | Noop -> ()
  | Span r ->
    let tbl =
      match r.r_counters with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        r.r_counters <- Some t;
        t
    in
    (match Hashtbl.find_opt tbl name with
    | Some cell -> cell := !cell + n
    | None -> Hashtbl.add tbl name (ref n))

let incr span name = add span name 1

(* A bump through a registered metric handle feeds both sinks: the
   process-global registry (always — the live-telemetry sampler reads
   it even when span tracing is off) and the span counter tree (when a
   span is open — the BENCH snapshot totals come from there and stay
   byte-identical to the pre-registry flush sites). *)
let bump span m n =
  Metrics.add m n;
  add span (Metrics.name m) n

(* --- freezing --- *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type node = {
  name : string;
  wall_ns : int64;
  size_before : int option;
  size_after : int option;
  depth_before : int option;
  depth_after : int option;
  gc : gc_delta;
  counters : (string * int) list;
  children : node list;
}

let opt_of_int i = if i < 0 then None else Some i

let gc_delta_of (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = Float.max 0.0 (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_words = Float.max 0.0 (g1.Gc.major_words -. g0.Gc.major_words);
    minor_collections = max 0 (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major_collections = max 0 (g1.Gc.major_collections - g0.Gc.major_collections);
  }

let rec freeze now gc_now r =
  let stop = if r.r_t1 = 0L then now else r.r_t1 in
  let gc_stop = match r.r_gc1 with Some g -> g | None -> gc_now in
  let counters =
    match r.r_counters with
    | None -> []
    | Some tbl ->
      Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    name = r.r_name;
    wall_ns = Int64.max 0L (Int64.sub stop r.r_t0);
    size_before = opt_of_int r.r_size0;
    size_after = opt_of_int r.r_size1;
    depth_before = opt_of_int r.r_depth0;
    depth_after = opt_of_int r.r_depth1;
    gc = gc_delta_of r.r_gc0 gc_stop;
    counters;
    (* [r_children] is stored newest-first; [rev_map] restores opening
       order. *)
    children = List.rev_map (freeze now gc_now) r.r_children;
  }

let spans trace =
  let now = monotonic_ns () in
  let gc_now = Gc.quick_stat () in
  List.rev_map (freeze now gc_now) trace.roots

let totals trace =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n =
    List.iter
      (fun (k, v) ->
        Hashtbl.replace acc k (v + Option.value ~default:0 (Hashtbl.find_opt acc k)))
      n.counters;
    List.iter walk n.children
  in
  List.iter walk (spans trace);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total trace name =
  Option.value ~default:0 (List.assoc_opt name (totals trace))

(* --- value distributions --- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

type dist = {
  count : int;
  total_ms : float;
  p50_ms : float;
  p90_ms : float;
  max_ms : float;
}

(* Nearest-rank percentile: the smallest sample such that at least
   [p * count] samples are <= it. [values] need not be sorted. *)
let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Sbm_obs.percentile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Sbm_obs.percentile: p outside [0,1]";
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let dist_of_samples values =
  let total = Array.fold_left ( +. ) 0.0 values in
  {
    count = Array.length values;
    total_ms = total;
    p50_ms = percentile values 0.5;
    p90_ms = percentile values 0.9;
    max_ms = percentile values 1.0;
  }

let histograms trace =
  let acc : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n =
    let ms = ms_of_ns n.wall_ns in
    (match Hashtbl.find_opt acc n.name with
    | Some cell -> cell := ms :: !cell
    | None -> Hashtbl.add acc n.name (ref [ ms ]));
    List.iter walk n.children
  in
  List.iter walk (spans trace);
  Hashtbl.fold
    (fun name cell l -> (name, dist_of_samples (Array.of_list !cell)) :: l)
    acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_histograms ppf trace =
  Fmt.pf ppf "%-32s %6s %10s %10s %10s %10s@." "span" "count" "p50 ms"
    "p90 ms" "max ms" "total ms";
  List.iter
    (fun (name, d) ->
      Fmt.pf ppf "%-32s %6d %10.3f %10.3f %10.3f %10.3f@." name d.count
        d.p50_ms d.p90_ms d.max_ms d.total_ms)
    (histograms trace)

(* --- reporters --- *)

let pp ppf trace =
  let rec go indent n =
    let pad = String.make (2 * indent) ' ' in
    Fmt.pf ppf "%s%-*s %8.2fms" pad (max 1 (32 - (2 * indent))) n.name
      (ms_of_ns n.wall_ns);
    (match (n.size_before, n.size_after) with
    | Some b, Some a -> Fmt.pf ppf "  %d -> %d nodes" b a
    | Some b, None -> Fmt.pf ppf "  %d nodes" b
    | None, Some a -> Fmt.pf ppf "  -> %d nodes" a
    | None, None -> ());
    (match (n.depth_before, n.depth_after) with
    | Some b, Some a -> Fmt.pf ppf "  %d -> %d levels" b a
    | Some b, None -> Fmt.pf ppf "  %d levels" b
    | None, Some a -> Fmt.pf ppf "  -> %d levels" a
    | None, None -> ());
    Fmt.pf ppf "@.";
    if n.counters <> [] then begin
      Fmt.pf ppf "%s  | " pad;
      List.iteri
        (fun i (k, v) -> Fmt.pf ppf "%s%s=%d" (if i > 0 then " " else "") k v)
        n.counters;
      Fmt.pf ppf "@."
    end;
    List.iter (go (indent + 1)) n.children
  in
  List.iter (go 0) (spans trace)

let json_escape = Sbm_util.Json_escape.string

let buf_counters b counters =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    counters;
  Buffer.add_char b '}'

let buf_span_fields b n =
  Buffer.add_string b (Printf.sprintf "\"wall_ms\":%.6f" (ms_of_ns n.wall_ns));
  let field name v =
    match v with
    | Some v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" name v)
    | None -> ()
  in
  field "size_before" n.size_before;
  field "size_after" n.size_after;
  field "depth_before" n.depth_before;
  field "depth_after" n.depth_after;
  Buffer.add_string b
    (Printf.sprintf
       ",\"gc\":{\"minor_words\":%.0f,\"major_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}"
       n.gc.minor_words n.gc.major_words n.gc.minor_collections
       n.gc.major_collections);
  if n.counters <> [] then begin
    Buffer.add_string b ",\"counters\":";
    buf_counters b n.counters
  end

let to_json trace =
  let b = Buffer.create 4096 in
  let rec go n =
    Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\"," (json_escape n.name));
    buf_span_fields b n;
    Buffer.add_string b ",\"children\":[";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        go c)
      n.children;
    Buffer.add_string b "]}"
  in
  Buffer.add_string b "{\"version\":2,\"totals\":";
  buf_counters b (totals trace);
  Buffer.add_string b ",\"histograms\":{";
  List.iteri
    (fun i (name, d) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"total_ms\":%.6f,\"p50_ms\":%.6f,\"p90_ms\":%.6f,\"max_ms\":%.6f}"
           (json_escape name) d.count d.total_ms d.p50_ms d.p90_ms d.max_ms))
    (histograms trace);
  Buffer.add_string b "},\"spans\":[";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      go n)
    (spans trace);
  Buffer.add_char b ']';
  (* Additive live-telemetry payloads (trace version stays 2: readers
     that only know "spans" ignore these keys). Emitted only when the
     corresponding subsystem ran, so plain traces are unchanged. *)
  let samples = Status.samples () in
  if samples <> [] then begin
    Buffer.add_string b ",\"samples\":[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Status.sample_to_json s))
      samples;
    Buffer.add_char b ']'
  end;
  let events = Flight_recorder.events () in
  if events <> [] then begin
    Buffer.add_string b ",\"events\":[";
    List.iteri
      (fun i (e : Flight_recorder.event) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"seq\":%d,\"t_ms\":%.3f,\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
             e.Flight_recorder.seq
             (Int64.to_float e.Flight_recorder.t_ns /. 1e6)
             (Flight_recorder.severity_to_string e.Flight_recorder.severity)
             (json_escape e.Flight_recorder.engine)
             (json_escape e.Flight_recorder.id)
             (json_escape e.Flight_recorder.message));
        buf_counters b e.Flight_recorder.metrics;
        Buffer.add_char b '}')
      events;
    Buffer.add_char b ']'
  end;
  let verdicts = Watchdog.verdicts () in
  if verdicts <> [] then begin
    Buffer.add_string b ",\"verdicts\":[";
    List.iteri
      (fun i (v : Watchdog.verdict) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"rule\":\"%s\",\"detail\":\"%s\",\"action\":\"%s\",\"t_ms\":%.3f}"
             (json_escape v.Watchdog.rule)
             (json_escape v.Watchdog.detail)
             (match v.Watchdog.action with
             | Watchdog.Note -> "note"
             | Watchdog.Abort -> "abort")
             (Int64.to_float v.Watchdog.t_ns /. 1e6)))
      verdicts;
    Buffer.add_char b ']'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let to_jsonl trace =
  let b = Buffer.create 4096 in
  let rec go path n =
    let path = if path = "" then n.name else path ^ "/" ^ n.name in
    Buffer.add_string b (Printf.sprintf "{\"path\":\"%s\"," (json_escape path));
    buf_span_fields b n;
    Buffer.add_string b "}\n";
    List.iter (go path) n.children
  in
  List.iter (go "") (spans trace);
  Buffer.contents b

(* RFC 4180 quoting: a cell containing a comma, quote or newline is
   wrapped in double quotes with inner quotes doubled. *)
let csv_cell s =
  if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  then begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

(* Counter names may contain the [k=v;k=v] packing's own separators;
   escape them with a backslash so the cell stays parseable. *)
let counter_key_escape s =
  if String.exists (function ';' | '=' | '\\' -> true | _ -> false) s then begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        (match c with ';' | '=' | '\\' -> Buffer.add_char b '\\' | _ -> ());
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let to_csv trace =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "path,wall_ms,size_before,size_after,depth_before,depth_after,counters\n";
  let cell = function Some v -> string_of_int v | None -> "" in
  let rec go path n =
    let path = if path = "" then n.name else path ^ "/" ^ n.name in
    let counters =
      String.concat ";"
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" (counter_key_escape k) v)
           n.counters)
    in
    Buffer.add_string b
      (Printf.sprintf "%s,%.6f,%s,%s,%s,%s,%s\n" (csv_cell path)
         (ms_of_ns n.wall_ns) (cell n.size_before) (cell n.size_after)
         (cell n.depth_before) (cell n.depth_after) (csv_cell counters));
    List.iter (go path) n.children
  in
  List.iter (go "") (spans trace);
  Buffer.contents b

let write trace path =
  let render =
    if Filename.check_suffix path ".jsonl" then to_jsonl
    else if Filename.check_suffix path ".csv" then to_csv
    else to_json
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render trace))

(* --- QoR snapshots --- *)

module Snapshot = struct
  type qor = { size : int; depth : int; luts : int; levels : int }

  type entry = {
    bench : string;
    size_before : int;
    qor : qor;
    wall_ms : float;
    counters : (string * int) list;
    passes : Ledger.row list;
  }

  type t = { version : int; label : string; seed : int; entries : entry list }

  let current_version = 1

  (* Version of the per-entry "passes" array. The snapshot itself
     stays at version 1 — the key is additive and old readers ignore
     unknown members, matching the trace-v2 precedent. *)
  let passes_version = 1

  let make ?(label = "") ?(seed = 0) entries =
    let entries =
      List.sort (fun a b -> String.compare a.bench b.bench) entries
    in
    { version = current_version; label; seed; entries }

  let find t bench = List.find_opt (fun e -> e.bench = bench) t.entries

  let to_json t =
    let b = Buffer.create 4096 in
    let has_passes = List.exists (fun e -> e.passes <> []) t.entries in
    Buffer.add_string b (Printf.sprintf "{\"version\":%d" t.version);
    if has_passes then
      Buffer.add_string b
        (Printf.sprintf ",\"passes_version\":%d" passes_version);
    Buffer.add_string b
      (Printf.sprintf ",\"label\":\"%s\",\"seed\":%d,\"entries\":["
         (json_escape t.label) t.seed);
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"bench\":\"%s\"" (json_escape e.bench));
        (* Additive key (old readers ignore it): the input AIG node
           count, making the suite's effective scale visible in the
           snapshot itself. -1 = unrecorded. *)
        if e.size_before >= 0 then
          Buffer.add_string b
            (Printf.sprintf ",\"size_before\":%d" e.size_before);
        Buffer.add_string b
          (Printf.sprintf
             ",\"size\":%d,\"depth\":%d,\"luts\":%d,\"levels\":%d,\"wall_ms\":%.3f,\"counters\":"
             e.qor.size e.qor.depth e.qor.luts e.qor.levels e.wall_ms);
        buf_counters b e.counters;
        if e.passes <> [] then begin
          Buffer.add_string b ",\"passes\":";
          Buffer.add_string b (Ledger.rows_to_json e.passes)
        end;
        Buffer.add_char b '}')
      t.entries;
    Buffer.add_string b "]}";
    Buffer.contents b

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_json t);
        output_char oc '\n')
end

(* --- crash-dump post-mortems --- *)

module Postmortem = struct
  let current_version = 1

  type setup = { mutable trace : trace option; mutable dir : string }

  let setup = { trace = None; dir = "." }

  let configure ?dir ?trace () =
    (match dir with Some d -> setup.dir <- d | None -> ());
    match trace with Some t -> setup.trace <- Some t | None -> ()

  let ms ns = Int64.to_float ns /. 1e6

  let to_json ~reason () =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "{\"version\":%d,\"reason\":\"%s\",\"pid\":%d"
         current_version (json_escape reason) (Unix.getpid ()));
    Buffer.add_string b
      (Printf.sprintf ",\"elapsed_ms\":%.3f" (ms (Flight_recorder.elapsed_ns ())));
    (* Absolute monotonic origin of the run: event [t_ms] values are
       relative to it; [t_ns = t0_ns + t_ms*1e6] recovers absolute
       clock readings for cross-process correlation ([--abs]). *)
    Buffer.add_string b
      (Printf.sprintf ",\"t0_ns\":%Ld" (Flight_recorder.t0_ns ()));
    (* Open spans, outermost first: the path from the flow root down
       to wherever the run died. *)
    Buffer.add_string b ",\"span_stack\":[";
    List.iteri
      (fun i (name, t0) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"opened_ms\":%.3f}"
             (json_escape name) (ms t0)))
      (List.rev (Flight_recorder.span_stack ()));
    Buffer.add_string b "],\"watchdog\":[";
    List.iteri
      (fun i (v : Watchdog.verdict) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"rule\":\"%s\",\"detail\":\"%s\",\"action\":\"%s\",\"t_ms\":%.3f}"
             (json_escape v.Watchdog.rule)
             (json_escape v.Watchdog.detail)
             (match v.Watchdog.action with
             | Watchdog.Note -> "note"
             | Watchdog.Abort -> "abort")
             (ms v.Watchdog.t_ns)))
      (Watchdog.verdicts ());
    Buffer.add_string b "],\"counters\":";
    buf_counters b (match setup.trace with Some t -> totals t | None -> []);
    Buffer.add_string b
      (Printf.sprintf ",\"recorded\":%d,\"dropped\":%d,\"events\":["
         (Flight_recorder.recorded ()) (Flight_recorder.dropped ()));
    List.iteri
      (fun i (e : Flight_recorder.event) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"seq\":%d,\"t_ms\":%.3f,\"t_ns\":%Ld,\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
             e.Flight_recorder.seq
             (ms e.Flight_recorder.t_ns)
             (Int64.add (Flight_recorder.t0_ns ()) e.Flight_recorder.t_ns)
             (Flight_recorder.severity_to_string e.Flight_recorder.severity)
             (json_escape e.Flight_recorder.engine)
             (json_escape e.Flight_recorder.id)
             (json_escape e.Flight_recorder.message));
        buf_counters b e.Flight_recorder.metrics;
        Buffer.add_char b '}')
      (Flight_recorder.events ());
    Buffer.add_string b "]}";
    Buffer.contents b

  let path () =
    Filename.concat setup.dir
      (Printf.sprintf "sbm-crash-%d.json" (Unix.getpid ()))

  let dump ~reason () =
    let file = path () in
    match open_out file with
    | exception Sys_error msg -> Error msg
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (to_json ~reason ());
          output_char oc '\n');
      Ok file

  let report_dump ~reason () =
    match dump ~reason () with
    | Ok file -> Printf.eprintf "sbm: post-mortem dump written to %s\n%!" file
    | Error msg -> Printf.eprintf "sbm: post-mortem dump failed: %s\n%!" msg

  (* 128 + signal number, the shell convention. *)
  let install ?dir ?trace () =
    configure ?dir ?trace ();
    let on signal name code =
      try
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ ->
               report_dump ~reason:("signal " ^ name) ();
               Stdlib.exit code))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    on Sys.sigint "SIGINT" 130;
    on Sys.sigterm "SIGTERM" 143
end
