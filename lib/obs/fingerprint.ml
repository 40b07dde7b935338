(* Determinism audit trail.

   A streaming sequence of 64-bit state fingerprints, one record per
   Flow pass boundary and one per partition merge boundary inside the
   partitioned engines. Each record is a composite of four components:

     structure        canonical structural hash of the live network
                      (Aig.fold_hash / Network.fold_hash — computed by
                      the caller: this library cannot see lib/aig)
     counters_digest  digest of the sorted nonzero registry counter
                      deltas since [enable]
     bank             prefilter signature-bank digest (0 = no bank)
     seeds            RNG / pattern-bank seeds (0 = no bank)

   plus a running [chain] value folding every component of every
   record so far — so a record's chain commits to the whole prefix,
   and two trails agree on record i's chain iff they agree on
   everything up to and including i.

   Determinism contract: every component is bit-identical at any
   --jobs. Records are only ever appended on the main domain, through
   [Boundary] — pass boundaries run there by construction, and merge
   boundaries run there in ascending partition index under
   [Par_merge.run] at any job count.
   Counter deltas are taken against the [enable]-time snapshot, so
   trails from two runs in the same process compare cleanly.

   The trail is process-global, like the ledger and metrics registry:
   flows run one at a time on the main domain. *)

type kind = Pass | Merge

let kind_to_string = function Pass -> "pass" | Merge -> "merge"
let kind_of_string = function
  | "pass" -> Some Pass
  | "merge" -> Some Merge
  | _ -> None

type record = {
  seq : int; (* position in the trail, from 0 *)
  kind : kind;
  label : string; (* pass path, or path/engine-partition-N for merges *)
  structure : int64;
  counters_digest : int64;
  bank : int64;
  seeds : int64;
  chain : int64; (* commits to every prior record *)
  counters : (string * int) list; (* full delta vector (pass records) *)
}

(* The same mixing primitives as Aig.fold_hash. *)
let h64 = Sbm_util.Hash64.finalize
let mix2 = Sbm_util.Hash64.mix2
let hash_string = Sbm_util.Hash64.string

let chain_init = h64 0x5bd1e9955bd1e995L

let counters_hash counters =
  List.fold_left
    (fun acc (k, v) -> mix2 (mix2 acc (hash_string k)) (Int64.of_int v))
    (h64 0x9e3779b9L) counters

type state = {
  mutable enabled : bool;
  mutable records : record list; (* newest first *)
  mutable seq : int;
  mutable chain : int64;
  mutable baseline : (string * int) list; (* counters at enable *)
  mutable out : out_channel option; (* streaming sink *)
  mutable bank_source : (unit -> int64 * int64) option;
}

let state =
  {
    enabled = false;
    records = [];
    seq = 0;
    chain = chain_init;
    baseline = [];
    out = None;
    bank_source = None;
  }

let enabled () = state.enabled

let m_records =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.records"
    "determinism audit-trail records emitted (pass and merge boundaries)"

let m_injected =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.injected"
    "audit-trail records perturbed by SBM_NONDET_INJECT (test-only)"

(* --- test-only nondeterminism injection ---

   Mirrors SBM_FAIL_AFTER in Flow: SBM_NONDET_INJECT=pass:N XORs a
   fixed mask into the structure component of every merge record for
   partition N of any pass whose innermost name (or engine label)
   matches — a planted divergence that `sbm audit` must localize to
   exactly that boundary. The env var is read lazily so tests can set
   it per-process; the ref is the in-process test hook. *)

let inject : (string * int) option ref = ref None
let inject_env_read = ref false

let parse_inject s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let pass = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt rest with
    | Some n when pass <> "" -> Some (pass, n)
    | _ -> None)

let injection () =
  if not !inject_env_read then begin
    inject_env_read := true;
    match Sys.getenv_opt "SBM_NONDET_INJECT" with
    | Some s when !inject = None -> inject := parse_inject s
    | _ -> ()
  end;
  !inject

let inject_mask = h64 0xbadc0ffee0ddf00dL

(* --- record assembly --- *)

let json_escape = Sbm_util.Json_escape.string

let record_to_json (r : record) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\":%d,\"kind\":\"%s\",\"label\":\"%s\",\"structure\":\"%016Lx\",\"counters\":\"%016Lx\",\"bank\":\"%016Lx\",\"seeds\":\"%016Lx\",\"chain\":\"%016Lx\""
       r.seq (kind_to_string r.kind) (json_escape r.label) r.structure
       r.counters_digest r.bank r.seeds r.chain);
  if r.counters <> [] then begin
    Buffer.add_string b ",\"counter_values\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v))
      r.counters;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let bank_components () =
  match state.bank_source with None -> (0L, 0L) | Some f -> f ()

let emit kind label structure counters =
  let counters_digest = counters_hash counters in
  let bank, seeds = bank_components () in
  let kind_tag = match kind with Pass -> 1L | Merge -> 2L in
  let chain =
    mix2
      (mix2
         (mix2 (mix2 state.chain (hash_string label)) kind_tag)
         (mix2 structure counters_digest))
      (mix2 bank seeds)
  in
  let r =
    { seq = state.seq; kind; label; structure; counters_digest; bank; seeds;
      chain; counters }
  in
  state.seq <- state.seq + 1;
  state.chain <- chain;
  state.records <- r :: state.records;
  (* Bumped after the digest is taken, so the record's own counter is
     not part of its delta — consistently, hence deterministically. *)
  Metrics.incr m_records;
  (match state.out with
  | None -> ()
  | Some oc ->
    output_string oc (record_to_json r);
    output_char oc '\n';
    flush oc);
  r

let counters_since_enable () =
  Metrics.counters_delta state.baseline (Metrics.counters_now ())

(* --- lifecycle --- *)

let reset () =
  state.records <- [];
  state.seq <- 0;
  state.chain <- chain_init;
  state.baseline <- []

let close_out () =
  match state.out with
  | None -> ()
  | Some oc ->
    close_out_noerr oc;
    state.out <- None

let enable ?path () =
  reset ();
  close_out ();
  (match path with
  | None -> ()
  | Some p -> state.out <- Some (open_out p));
  state.baseline <- Metrics.counters_now ();
  state.enabled <- true

let disable () =
  state.enabled <- false;
  close_out ();
  state.bank_source <- None;
  reset ()

let set_bank_source f = state.bank_source <- f

(* --- boundaries (appended by [Boundary], which owns the pass stack) --- *)

let record_pass ~label ~structure =
  if not state.enabled then 0L
  else (emit Pass label structure (counters_since_enable ())).chain

let record_merge ~pass ~engine ~partition ~structure =
  if state.enabled then begin
    let inner = match pass with None -> engine | Some (name, _) -> name in
    let structure =
      match injection () with
      | Some (p, n) when n = partition && (p = inner || p = engine) ->
        Metrics.incr m_injected;
        Int64.logxor structure inject_mask
      | _ -> structure
    in
    let prefix = match pass with None -> "" | Some (_, path) -> path ^ "/" in
    let label = Printf.sprintf "%s%s-partition-%d" prefix engine partition in
    ignore (emit Merge label structure (counters_since_enable ()))
  end

let records () = List.rev state.records
