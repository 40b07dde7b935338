type event = {
  seq : int;
  t_ms : float;
  t_ns : float option; (* absolute monotonic ns, dumps that carry it *)
  severity : string;
  engine : string;
  id : string;
  message : string;
  metrics : (string * int) list;
}

type verdict = { rule : string; detail : string; action : string; v_t_ms : float }

type frame = { frame_name : string; opened_ms : float }

type dump = {
  version : int;
  reason : string;
  pid : int;
  elapsed_ms : float;
  t0_ns : float option; (* absolute monotonic ns of recorder start *)
  span_stack : frame list;
  verdicts : verdict list;
  counters : (string * int) list;
  recorded : int;
  dropped : int;
  events : event list;
}

let supported_version = 1

(* --- loading --- *)

let str ?(default = "") key j =
  Option.value ~default (Json.to_str (Json.member key j))

let int_ ?(default = 0) key j =
  Option.value ~default (Json.to_int (Json.member key j))

let float_ ?(default = 0.0) key j =
  Option.value ~default (Json.to_float (Json.member key j))

let counters_of key j =
  List.filter_map
    (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int (Some v)))
    (Json.to_obj (Json.member key j))

let event_of_json j =
  {
    seq = int_ "seq" j;
    t_ms = float_ "t_ms" j;
    t_ns = Json.to_float (Json.member "t_ns" j);
    severity = str ~default:"info" "severity" j;
    engine = str ~default:"?" "engine" j;
    id = str "id" j;
    message = str "message" j;
    metrics = counters_of "metrics" j;
  }

let verdict_of_json j =
  {
    rule = str ~default:"?" "rule" j;
    detail = str "detail" j;
    action = str ~default:"note" "action" j;
    v_t_ms = float_ "t_ms" j;
  }

let frame_of_json j =
  { frame_name = str ~default:"?" "name" j; opened_ms = float_ "opened_ms" j }

let of_json s =
  match String.trim s with
  | "" -> Error "empty input"
  | s -> (
    match Json.parse s with
    | exception Json.Bad msg -> Error ("malformed JSON: " ^ msg)
    | json -> (
      match Json.to_int (Json.member "version" json) with
      | None -> Error "not a post-mortem dump: missing \"version\""
      | Some v when v > supported_version ->
        Error
          (Printf.sprintf "unsupported dump version %d (this sbm reads <= %d)" v
             supported_version)
      | Some version ->
        Ok
          {
            version;
            reason = str ~default:"?" "reason" json;
            pid = int_ "pid" json;
            elapsed_ms = float_ "elapsed_ms" json;
            t0_ns = Json.to_float (Json.member "t0_ns" json);
            span_stack =
              List.map frame_of_json (Json.to_list (Json.member "span_stack" json));
            verdicts =
              List.map verdict_of_json (Json.to_list (Json.member "watchdog" json));
            counters = counters_of "counters" json;
            recorded = int_ "recorded" json;
            dropped = int_ "dropped" json;
            events = List.map event_of_json (Json.to_list (Json.member "events" json));
          }))

let load path =
  match Json.read_source path with
  | Error msg -> Error msg
  | Ok s -> (
    let label = if path = "-" then "stdin" else path in
    match of_json s with
    | Ok _ as ok -> ok
    | Error msg -> Error (label ^ ": " ^ msg))

(* --- rendering --- *)

let pp_metrics ppf = function
  | [] -> ()
  | metrics ->
    Fmt.pf ppf "  {%a}"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
      metrics

(* Timestamp column. Default: delta from run start ("+123.4 ms" —
   that is what t_ms already measures). --abs: the absolute monotonic
   clock in ns, taken from the event's own t_ns when the dump carries
   one, reconstructed from t0_ns + t_ms otherwise. Dumps predating
   t0_ns fall back to deltas even under --abs. *)
let pp_stamp ~abs t0_ns ppf (t_ms, t_ns) =
  let absolute =
    if not abs then None
    else
      match (t_ns, t0_ns) with
      | Some ns, _ -> Some ns
      | None, Some t0 -> Some (t0 +. (t_ms *. 1e6))
      | None, None -> None
  in
  match absolute with
  | Some ns -> Fmt.pf ppf "[%18.0f ns]" ns
  | None -> Fmt.pf ppf "[%+10.1f ms]" t_ms

let pp ?(last = 20) ?(abs = false) ppf d =
  let stamp = pp_stamp ~abs d.t0_ns in
  Fmt.pf ppf "post-mortem dump (version %d)@." d.version;
  Fmt.pf ppf "  reason:  %s@." d.reason;
  Fmt.pf ppf "  pid:     %d   elapsed: %.1f s@." d.pid (d.elapsed_ms /. 1000.0);
  Fmt.pf ppf "  events:  %d recorded, %d overwritten@." d.recorded d.dropped;
  Fmt.pf ppf "@.open spans at crash (outermost first):@.";
  if d.span_stack = [] then Fmt.pf ppf "  (none)@."
  else
    List.iter
      (fun f ->
        Fmt.pf ppf "  %-32s opened at %a@." f.frame_name stamp
          (f.opened_ms, None))
      d.span_stack;
  Fmt.pf ppf "@.watchdog verdicts:@.";
  if d.verdicts = [] then Fmt.pf ppf "  (none)@."
  else
    List.iter
      (fun v ->
        Fmt.pf ppf "  %a %s (%s): %s@." stamp (v.v_t_ms, None) v.rule v.action
          v.detail)
      d.verdicts;
  let total = List.length d.events in
  let shown = min last total in
  Fmt.pf ppf "@.timeline (last %d of %d buffered events):@." shown total;
  if total = 0 then Fmt.pf ppf "  (none)@."
  else
    List.iteri
      (fun i e ->
        if i >= total - shown then
          Fmt.pf ppf "  %a %-5s %-10s %-14s %s%a@." stamp (e.t_ms, e.t_ns)
            (String.uppercase_ascii e.severity)
            e.engine e.id e.message pp_metrics e.metrics)
      d.events;
  let live = List.filter (fun (_, v) -> v <> 0) d.counters in
  if live <> [] then begin
    Fmt.pf ppf "@.counters:@.";
    List.iter (fun (k, v) -> Fmt.pf ppf "  %-32s %12d@." k v) live
  end

(* --- canonical re-emission (--json) --- *)

let escape = Sbm_util.Json_escape.string

let buf_counters b counters =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (escape k) v))
    counters;
  Buffer.add_char b '}'

let to_json d =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"version\":%d,\"reason\":\"%s\",\"pid\":%d,\"elapsed_ms\":%.3f"
       d.version (escape d.reason) d.pid d.elapsed_ms);
  (match d.t0_ns with
  | Some t0 -> Buffer.add_string b (Printf.sprintf ",\"t0_ns\":%.0f" t0)
  | None -> ());
  Buffer.add_string b ",\"span_stack\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"opened_ms\":%.3f}"
           (escape f.frame_name) f.opened_ms))
    d.span_stack;
  Buffer.add_string b "],\"watchdog\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"rule\":\"%s\",\"detail\":\"%s\",\"action\":\"%s\",\"t_ms\":%.3f}"
           (escape v.rule) (escape v.detail) (escape v.action) v.v_t_ms))
    d.verdicts;
  Buffer.add_string b "],\"counters\":";
  buf_counters b d.counters;
  Buffer.add_string b
    (Printf.sprintf ",\"recorded\":%d,\"dropped\":%d,\"events\":[" d.recorded
       d.dropped);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f" e.seq e.t_ms);
      (match e.t_ns with
      | Some ns -> Buffer.add_string b (Printf.sprintf ",\"t_ns\":%.0f" ns)
      | None -> ());
      Buffer.add_string b
        (Printf.sprintf
           ",\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
           (escape e.severity) (escape e.engine) (escape e.id)
           (escape e.message));
      buf_counters b e.metrics;
      Buffer.add_char b '}')
    d.events;
  Buffer.add_string b "]}";
  Buffer.contents b
