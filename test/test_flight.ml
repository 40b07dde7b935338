(* The in-flight observability layer: flight-recorder ring semantics,
   watchdog threshold rules and abort lifecycle, post-mortem dump
   round-trips through the inspect reader, and the flow's failure
   injection producing a parseable dump with the failing pass on the
   open span stack. The recorder and watchdog are process-global, so
   every test tears them down. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module FR = Sbm_obs.Flight_recorder
module Wd = Sbm_obs.Watchdog
module Boundary = Sbm_obs.Boundary
module Inspect = Sbm_report.Inspect

let teardown () =
  Wd.disarm ();
  FR.disable ();
  Sbm_core.Flow.inject_failure_after := None

let protecting f () = Fun.protect ~finally:teardown f

(* --- ring buffer --- *)

let test_ring_wraparound () =
  FR.enable ~capacity:16 ();
  Alcotest.(check int) "capacity clamped to minimum" 16 (FR.capacity ());
  for i = 0 to 19 do
    FR.record ~engine:"test" ~metrics:[ ("i", i) ] "tick"
  done;
  let events = FR.events () in
  Alcotest.(check int) "ring holds capacity" 16 (List.length events);
  Alcotest.(check int) "recorded counts everything" 20 (FR.recorded ());
  Alcotest.(check int) "dropped = overwritten" 4 (FR.dropped ());
  (* Oldest first: the surviving window is seqs 4..19. *)
  Alcotest.(check int) "oldest surviving seq" 4 (List.hd events).FR.seq;
  Alcotest.(check int) "newest seq" 19
    (List.nth events 15).FR.seq;
  Alcotest.(check (list (pair string int)))
    "metrics ride along" [ ("i", 19) ]
    (List.nth events 15).FR.metrics

let test_disabled_is_noop () =
  FR.disable ();
  Alcotest.(check bool) "off by default" false (FR.enabled ());
  FR.record ~engine:"test" "ignored";
  FR.span_opened "ghost";
  Alcotest.(check int) "nothing recorded" 0 (FR.recorded ());
  Alcotest.(check (list (pair string int64))) "no stack" [] (FR.span_stack ());
  Alcotest.(check int) "no capacity" 0 (FR.capacity ())

let test_event_fields () =
  FR.enable ();
  FR.record ~severity:FR.Warn ~id:"partition-3"
    ~metrics:[ ("bails", 2); ("members", 41) ]
    ~engine:"mspf" "node-budget bail-out";
  (match FR.events () with
  | [ e ] ->
    Alcotest.(check string) "severity" "warn" (FR.severity_to_string e.FR.severity);
    Alcotest.(check string) "engine" "mspf" e.FR.engine;
    Alcotest.(check string) "id" "partition-3" e.FR.id;
    Alcotest.(check string) "message" "node-budget bail-out" e.FR.message;
    Alcotest.(check (list (pair string int)))
      "metrics in emission order"
      [ ("bails", 2); ("members", 41) ]
      e.FR.metrics;
    Alcotest.(check bool) "timestamped" true (e.FR.t_ns >= 0L)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  (* Re-enabling restarts from empty. *)
  FR.enable ();
  Alcotest.(check int) "re-enable resets" 0 (FR.recorded ())

let test_span_stack_follows_obs () =
  FR.enable ();
  let trace = Obs.create () in
  let root = Obs.root trace "flow" in
  let child = Obs.span root "mspf" in
  Alcotest.(check (list string))
    "innermost first" [ "mspf"; "flow" ]
    (List.map fst (FR.span_stack ()));
  Obs.close child;
  Alcotest.(check (list string))
    "pop on close" [ "flow" ]
    (List.map fst (FR.span_stack ()));
  Obs.close root;
  Alcotest.(check (list (pair string int64))) "empty at end" [] (FR.span_stack ())

(* --- watchdog rules --- *)

let arm_with f = Wd.arm (f Wd.default_config)

let rules () = List.map (fun v -> v.Wd.rule) (Wd.verdicts ())

let test_deadline_fires_once_per_pass () =
  arm_with (fun c -> { c with Wd.pass_deadline_ms = Some 0.0 });
  Boundary.start "mspf";
  Boundary.poll ();
  Boundary.poll ();
  Alcotest.(check (list string)) "one verdict per frame" [ "pass-deadline" ] (rules ());
  Boundary.finish ();
  Boundary.start "mspf";
  Boundary.poll ();
  Boundary.finish ();
  Alcotest.(check int) "re-fires for a new activation" 2 (List.length (rules ()));
  (* The verdict also landed in the recorder (arm enables it). *)
  Alcotest.(check bool) "verdict recorded as event" true
    (List.exists (fun e -> e.FR.engine = "watchdog") (FR.events ()))

let test_bail_streak () =
  arm_with (fun c -> { c with Wd.max_bail_streak = Some 3 });
  Wd.note_partition ~engine:"mspf" ~bails:1;
  Wd.note_partition ~engine:"mspf" ~bails:2;
  Alcotest.(check (list string)) "below threshold" [] (rules ());
  Wd.note_partition ~engine:"mspf" ~bails:0 (* resets *);
  Wd.note_partition ~engine:"mspf" ~bails:1;
  Wd.note_partition ~engine:"mspf" ~bails:1;
  Wd.note_partition ~engine:"mspf" ~bails:1;
  Alcotest.(check (list string)) "streak of 3 fires" [ "bail-streak" ] (rules ())

let test_gradient_stall () =
  arm_with (fun c -> { c with Wd.stall_rounds = Some 2 });
  Wd.note_round ~gain:5;
  Wd.note_round ~gain:0;
  Alcotest.(check (list string)) "one dry round is fine" [] (rules ());
  Wd.note_round ~gain:0;
  Alcotest.(check (list string)) "two dry rounds stall" [ "gradient-stall" ] (rules ())

let test_abort_lifecycle () =
  arm_with (fun c ->
      { c with Wd.max_bail_streak = Some 1; action = Wd.Abort });
  Boundary.start "mspf";
  Alcotest.(check bool) "no abort yet" false (Wd.abort_requested ());
  Wd.note_partition ~engine:"mspf" ~bails:1;
  Alcotest.(check bool) "abort requested" true (Wd.abort_requested ());
  Boundary.finish ();
  Alcotest.(check bool) "pass end clears abort" false (Wd.abort_requested ());
  Wd.disarm ();
  (* Disarmed hooks are no-ops. *)
  Wd.note_partition ~engine:"mspf" ~bails:9;
  Boundary.poll ();
  Alcotest.(check bool) "disarmed" false (Wd.abort_requested ())

(* --- post-mortem dumps --- *)

let test_dump_round_trip () =
  FR.enable ();
  arm_with (fun c -> { c with Wd.stall_rounds = Some 1 });
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let root = Obs.root trace "sbm" in
  let sp = Obs.span root "gradient" in
  Obs.add sp "gradient.rounds" 3;
  FR.record ~severity:FR.Debug ~id:"round-1" ~engine:"gradient"
    ~metrics:[ ("gain", 7) ]
    "round done";
  Wd.note_round ~gain:0 (* fires gradient-stall *);
  let json = Obs.Postmortem.to_json ~reason:"unit \"test\"" () in
  match Inspect.of_json json with
  | Error msg -> Alcotest.failf "dump does not parse: %s" msg
  | Ok d ->
    Alcotest.(check int) "version" 1 d.Inspect.version;
    Alcotest.(check string) "escaped reason survives" "unit \"test\"" d.Inspect.reason;
    Alcotest.(check (list string))
      "open spans outermost first" [ "sbm"; "gradient" ]
      (List.map (fun f -> f.Inspect.frame_name) d.Inspect.span_stack);
    (match d.Inspect.verdicts with
    | [ v ] ->
      Alcotest.(check string) "verdict rule" "gradient-stall" v.Inspect.rule;
      Alcotest.(check string) "verdict action" "note" v.Inspect.action
    | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l));
    Alcotest.(check int) "counters from the trace" 3
      (List.assoc "gradient.rounds" d.Inspect.counters);
    Alcotest.(check bool) "events survive" true
      (List.exists
         (fun e -> e.Inspect.id = "round-1" && e.Inspect.metrics = [ ("gain", 7) ])
         d.Inspect.events);
    (* Canonical re-emission parses back to the same dump. *)
    (match Inspect.of_json (Inspect.to_json d) with
    | Ok d2 -> Alcotest.(check bool) "to_json round-trips" true (d = d2)
    | Error msg -> Alcotest.failf "re-emission does not parse: %s" msg);
    Obs.close sp;
    Obs.close root

let test_inspect_rejects_bad_input () =
  let err s =
    match Inspect.of_json s with Ok _ -> "(ok)" | Error msg -> msg
  in
  Alcotest.(check string) "empty" "empty input" (err "");
  Alcotest.(check string) "whitespace only" "empty input" (err "  \n ");
  Alcotest.(check bool) "truncated JSON" true
    (String.length (err "{\"version\":1") > 0
    && err "{\"version\":1" <> "(ok)");
  Alcotest.(check string) "missing version"
    "not a post-mortem dump: missing \"version\"" (err "{\"events\":[]}");
  Alcotest.(check string) "future version"
    "unsupported dump version 99 (this sbm reads <= 1)"
    (err "{\"version\":99,\"events\":[]}")

let test_injected_failure_dumps () =
  FR.enable ();
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let aig = Aig.create () in
  let x = Array.init 4 (fun _ -> Aig.add_input aig) in
  let f = Aig.band aig (Aig.band aig x.(0) x.(1)) (Aig.bor aig x.(2) x.(3)) in
  ignore (Aig.add_output aig f);
  Sbm_core.Flow.inject_failure_after := Some 1;
  let root = Obs.root trace "run" in
  (match Sbm_core.Flow.run ~obs:root Sbm_core.Flow.Gradient aig with
  | (_ : Aig.t) -> Alcotest.fail "injected failure did not fire"
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the pass" true
      (String.length msg > 0
      && String.sub msg 0 (min 26 (String.length msg))
         = "injected failure in pass '"));
  Alcotest.(check (option int))
    "hook is one-shot" None !Sbm_core.Flow.inject_failure_after;
  (* The dump taken at this instant must parse and show the failing
     pass still open — the crash handler's view. *)
  match Inspect.of_json (Obs.Postmortem.to_json ~reason:"injected" ()) with
  | Error msg -> Alcotest.failf "crash dump does not parse: %s" msg
  | Ok d ->
    Alcotest.(check (list string))
      "failing pass on the open stack" [ "run"; "gradient" ]
      (List.map (fun f -> f.Inspect.frame_name) d.Inspect.span_stack);
    Alcotest.(check bool) "its start event is buffered" true
      (List.exists
         (fun e ->
           e.Inspect.engine = "flow" && e.Inspect.id = "gradient"
           && e.Inspect.message = "pass start")
         d.Inspect.events)

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick (protecting test_ring_wraparound);
    Alcotest.test_case "disabled is a no-op" `Quick (protecting test_disabled_is_noop);
    Alcotest.test_case "event fields" `Quick (protecting test_event_fields);
    Alcotest.test_case "span stack follows obs" `Quick
      (protecting test_span_stack_follows_obs);
    Alcotest.test_case "deadline fires once per pass" `Quick
      (protecting test_deadline_fires_once_per_pass);
    Alcotest.test_case "bail streak" `Quick (protecting test_bail_streak);
    Alcotest.test_case "gradient stall" `Quick (protecting test_gradient_stall);
    Alcotest.test_case "abort lifecycle" `Quick (protecting test_abort_lifecycle);
    Alcotest.test_case "dump round-trip" `Quick (protecting test_dump_round_trip);
    Alcotest.test_case "inspect rejects bad input" `Quick
      (protecting test_inspect_rejects_bad_input);
    Alcotest.test_case "injected failure dumps" `Quick
      (protecting test_injected_failure_dumps);
  ]
