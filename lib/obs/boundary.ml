(* The single pass/merge boundary path; DESIGN.md §9. Publishing
   order — pass end: trail, ledger (carrying the trail's chain value),
   recorder, watchdog; merge: watchdog, recorder, trail. *)

module FR = Flight_recorder

type frame = {
  name : string;
  path : string; (* slash-joined, outermost first *)
  t0 : int64;
  size0 : int;
  depth0 : int;
  counters0 : (string * int) list; (* taken only while the ledger is on *)
  gc0 : Gc.stat;
  (* BDD load maxima: the gauges are drained into every open frame and
     reset whenever a pass starts or ends, so each frame sees the
     maximum over exactly its own extent, nesting included. *)
  mutable u_max : int;
  mutable c_max : int;
  wd : Watchdog.pass;
}

let stack : frame list ref = ref [] (* innermost first *)

let live () = Ledger.enabled () || Fingerprint.enabled ()

(* Read-and-reset a gauge registered by the BDD layer; absent until
   that layer is linked. *)
let drain name =
  match Metrics.find name with
  | None -> 0
  | Some m ->
    let v = Metrics.value m in
    Metrics.set m 0;
    v

let drain_gauges () =
  let u = drain "bdd.unique_load_pct" in
  let c = drain "bdd.cache_load_pct" in
  if u > 0 || c > 0 then
    List.iter
      (fun f ->
        if u > f.u_max then f.u_max <- u;
        if c > f.c_max then f.c_max <- c)
      !stack

let start ?(size = -1) ?(depth = -1) name =
  if size >= 0 && FR.enabled () then
    FR.record ~severity:FR.Info ~engine:"flow" ~id:name
      ~metrics:[ ("size", size) ] "pass start";
  let ledger = Ledger.enabled () in
  if ledger then drain_gauges ();
  stack :=
    {
      name;
      path = (match !stack with [] -> name | f :: _ -> f.path ^ "/" ^ name);
      t0 = FR.monotonic_ns ();
      size0 = size;
      depth0 = depth;
      counters0 = (if ledger then Metrics.counters_now () else []);
      gc0 = Gc.quick_stat ();
      u_max = 0;
      c_max = 0;
      wd = Watchdog.pass name;
    }
    :: !stack

type measure = {
  size : int;
  depth : int;
  dead_node_pct : int;
  structure : unit -> int64;
  lut_qor : unit -> int * int;
}

let publish_pass f m =
  (* Trail record first, so the chain value can ride on the ledger
     row; the ledger's counter delta then includes the trail's own
     record counter — consistently at any --jobs. *)
  let fingerprint =
    if Fingerprint.enabled () then
      Fingerprint.record_pass ~label:f.path ~structure:(m.structure ())
    else 0L
  in
  if Ledger.enabled () then begin
    let luts, levels = m.lut_qor () in
    let q = Gc.quick_stat () in
    Ledger.append
      {
        Ledger.path = f.path;
        index = 0;
        size_before = f.size0;
        size_after = m.size;
        depth_before = f.depth0;
        depth_after = m.depth;
        luts;
        levels;
        fingerprint;
        wall_ns = Int64.sub (FR.monotonic_ns ()) f.t0;
        counters = Metrics.counters_delta f.counters0 (Metrics.counters_now ());
        minor_words = q.Gc.minor_words -. f.gc0.Gc.minor_words;
        major_words = q.Gc.major_words -. f.gc0.Gc.major_words;
        heap_words = q.Gc.heap_words;
        unique_load_pct = f.u_max;
        cache_load_pct = f.c_max;
        dead_node_pct = m.dead_node_pct;
      }
  end;
  if FR.enabled () then
    FR.record ~severity:FR.Info ~engine:"flow" ~id:f.name
      ~metrics:[ ("size", m.size); ("gain", f.size0 - m.size) ]
      "pass end"

let finish ?measure () =
  match !stack with
  | [] -> () (* unbalanced end: drop rather than corrupt the subscribers *)
  | f :: rest ->
    if Ledger.enabled () then drain_gauges ();
    stack := rest;
    Option.iter (publish_pass f) measure;
    Watchdog.clear_abort ()

let merge ~engine ~partition ~structure ?bails metrics =
  Option.iter (fun bails -> Watchdog.note_partition ~engine ~bails) bails;
  if FR.enabled () then
    FR.record
      ~severity:(match bails with Some b when b > 0 -> FR.Warn | _ -> FR.Debug)
      ~engine
      ~id:(Printf.sprintf "partition-%d" partition)
      ~metrics "partition done";
  if Fingerprint.enabled () then
    Fingerprint.record_merge
      ~pass:(match !stack with [] -> None | f :: _ -> Some (f.name, f.path))
      ~engine ~partition ~structure:(structure ())

let poll () =
  if Watchdog.enabled () then
    Watchdog.poll ~passes:(List.map (fun f -> f.wd) !stack)
