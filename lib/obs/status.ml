(* Live run telemetry: a sampler domain that periodically snapshots
   the metrics registry + flight-recorder span stack + watchdog
   verdicts and rewrites a JSONL status file via atomic rename, so an
   external `sbm top` can tail a consistent view of a run in flight.

   The status file always holds the full retained history (up to
   [max_history] samples, one JSON object per line, oldest first);
   rewriting the whole file through rename means a reader never sees a
   torn line — it either opens the previous complete file or the new
   complete file. *)

type sample = {
  seq : int;
  t_ms : float; (* since the sampler started *)
  pass : string; (* open-span path, outermost first, ">"-joined *)
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * Metrics.hstats) list;
  verdicts : int;
  abort : bool;
  finished : bool;
}

let max_history = 600

(* --- JSON emission (same minimal escaper as Sbm_obs reporters) --- *)

let buf_escape = Sbm_util.Json_escape.add

let add_pairs b key pairs =
  Buffer.add_string b (Printf.sprintf ",\"%s\":{" key);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      buf_escape b k;
      Buffer.add_string b (Printf.sprintf "\":%d" v))
    pairs;
  Buffer.add_char b '}'

let sample_to_json s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f,\"pass\":\"" s.seq s.t_ms);
  buf_escape b s.pass;
  Buffer.add_char b '"';
  add_pairs b "counters" s.counters;
  add_pairs b "gauges" s.gauges;
  if s.hists <> [] then begin
    Buffer.add_string b ",\"hists\":{";
    List.iteri
      (fun i (k, (h : Metrics.hstats)) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        buf_escape b k;
        Buffer.add_string b
          (Printf.sprintf "\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d}"
             h.h_count h.h_sum h.h_min h.h_max))
      s.hists;
    Buffer.add_char b '}'
  end;
  Buffer.add_string b
    (Printf.sprintf ",\"verdicts\":%d,\"abort\":%b,\"finished\":%b}" s.verdicts
       s.abort s.finished);
  Buffer.contents b

(* --- sampler state --- *)

type st = {
  path : string;
  interval_ms : float;
  t0 : int64;
  mutable seq : int;
  mutable history : sample list; (* newest first, capped *)
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  lock : Mutex.t;
}

let current : st option ref = ref None

let take_sample st ~finished =
  let t_ms =
    Int64.to_float (Int64.sub (Flight_recorder.monotonic_ns ()) st.t0) /. 1_000_000.
  in
  let pass =
    Flight_recorder.span_stack () |> List.rev_map fst |> String.concat ">"
  in
  let s =
    {
      seq = st.seq;
      t_ms;
      pass;
      counters = Metrics.counters_now ();
      gauges = Metrics.gauges_now ();
      hists = Metrics.hists_now ();
      verdicts = List.length (Watchdog.verdicts ());
      abort = Watchdog.abort_requested ();
      finished;
    }
  in
  st.seq <- st.seq + 1;
  s

let write_file st =
  let lines =
    List.rev_map sample_to_json st.history |> String.concat "\n"
  in
  let tmp = st.path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc lines;
  output_char oc '\n';
  close_out oc;
  (* rename is atomic on POSIX: a concurrent reader sees either the
     old complete file or the new one, never a partial write *)
  Unix.rename tmp st.path

let tick st ~finished =
  (* span_stack/verdicts are written by the main domain without
     synchronization; the sampler reads immutable list cells, so the
     worst case is a one-tick-stale pass path, which is fine for a
     human dashboard. *)
  Mutex.lock st.lock;
  let s = take_sample st ~finished in
  st.history <-
    s
    :: (if List.length st.history >= max_history then
          List.filteri (fun i _ -> i < max_history - 1) st.history
        else st.history);
  (try write_file st with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.unlock st.lock

let sampler_loop st =
  (* sleep in short slices so stop () returns promptly even with a
     multi-second interval *)
  let slice = 0.05 in
  let rec wait remaining =
    if (not (Atomic.get st.stop_flag)) && remaining > 0. then begin
      Unix.sleepf (min slice remaining);
      wait (remaining -. slice)
    end
  in
  while not (Atomic.get st.stop_flag) do
    tick st ~finished:false;
    wait (st.interval_ms /. 1000.)
  done

let active () = !current <> None

let start ?(interval_ms = 500.) path =
  if !current <> None then
    invalid_arg "Sbm_obs.Status.start: sampler already running";
  (* the pass path comes from the recorder's span-stack mirror *)
  if not (Flight_recorder.enabled ()) then Flight_recorder.enable ();
  let st =
    {
      path;
      interval_ms = Float.max 20. interval_ms;
      t0 = Flight_recorder.monotonic_ns ();
      seq = 0;
      history = [];
      stop_flag = Atomic.make false;
      domain = None;
      lock = Mutex.create ();
    }
  in
  current := Some st;
  tick st ~finished:false;
  st.domain <- Some (Domain.spawn (fun () -> sampler_loop st))

(* History of the most recently stopped sampler, kept so the trace
   writer can embed the samples after the run winds down. *)
let retired : sample list ref = ref []

let stop () =
  match !current with
  | None -> ()
  | Some st ->
    Atomic.set st.stop_flag true;
    (match st.domain with Some d -> Domain.join d | None -> ());
    tick st ~finished:true;
    retired := List.rev st.history;
    current := None

let samples () =
  match !current with
  | None -> !retired
  | Some st ->
    Mutex.lock st.lock;
    let h = List.rev st.history in
    Mutex.unlock st.lock;
    h
