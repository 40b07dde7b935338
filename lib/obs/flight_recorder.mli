(** In-flight black-box recorder for SBM runs.

    A process-global, bounded ring buffer of structured events —
    severity, emitting engine, pass/partition id, key metrics and a
    monotonic timestamp — written to by the engines, the BDD manager,
    the SAT solver and the flow's pass boundaries while an optimization
    runs. Unlike the post-hoc telemetry of {!Sbm_obs} (spans, frozen
    after the run), the recorder is readable at any instant: the
    watchdog consults it to evaluate thresholds, the heartbeat prints
    its tail, and the crash handler dumps it when a run dies.

    The recorder is off by default and designed to cost one branch
    when off: every entry point checks {!enabled} first, so the
    disabled path is a load and a conditional jump. When on, recording
    an event is an array store into a preallocated ring — old events
    are overwritten once the buffer is full (the [dropped] count keeps
    the loss visible).

    The ring is owned by the main domain. Worker domains record
    through {!capture}/{!replay}: events are buffered domain-locally
    and merged on the main domain in an order the scheduler cannot
    perturb. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]
(** The raw monotonic clock, in nanoseconds from an arbitrary origin
    (the one clock every [Sbm_obs] module reads). *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  seq : int;  (** 0-based sequence number since {!enable} *)
  t_ns : int64;  (** monotonic time since {!enable} *)
  severity : severity;
  engine : string;  (** emitter: ["flow"], ["gradient"], ["bdd"], ... *)
  id : string;  (** pass / partition / round id, [""] when n/a *)
  message : string;
  metrics : (string * int) list;  (** key metrics, in emission order *)
}

(** {1 Lifecycle} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** [enable ()] switches the recorder on with a fresh, empty ring of
    [capacity] slots (default 512, clamped to at least 16) and resets
    the sequence counter and time origin. Calling it while already
    enabled restarts from empty. *)

val disable : unit -> unit
(** Switch off and drop the buffer. *)

val capacity : unit -> int
(** Ring capacity; [0] when disabled. *)

val elapsed_ns : unit -> int64
(** Monotonic time since {!enable} ([0L] when disabled). *)

val t0_ns : unit -> int64
(** Absolute monotonic timestamp of {!enable} ([0L] when disabled).
    Event [t_ns] values are relative to this origin; adding it back
    recovers absolute clock readings for crash-dump correlation. *)

(** {1 Recording} *)

val record :
  ?severity:severity ->
  ?id:string ->
  ?metrics:(string * int) list ->
  engine:string ->
  string ->
  unit
(** [record ~engine msg] appends an event (severity defaults to
    [Info]). No-op when disabled. *)

val capture : (unit -> 'a) -> 'a * event list
(** [capture f] runs [f] with recording redirected to a private
    domain-local buffer and returns [f]'s result together with the
    buffered events (oldest first, [seq = -1]). This is how worker
    domains record: the shared ring is owned by the main domain, so a
    parallel partition analysis runs under [capture] and its events
    are merged back with {!replay} in deterministic partition order. *)

val replay : event list -> unit
(** [replay events] appends captured events to the ring with fresh
    sequence numbers, preserving their original timestamps. Call on
    the main domain only. No-op when disabled. *)

(** {1 Reading} *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val recorded : unit -> int
(** Total events recorded since {!enable}, dropped ones included. *)

val dropped : unit -> int
(** Events overwritten by ring wraparound:
    [recorded () - List.length (events ())]. *)

(** {1 Span stack}

    {!Sbm_obs} notifies the recorder when spans open and close, so at
    any instant — in particular, at crash time — the stack of open
    spans is known without freezing the trace. *)

val span_opened : string -> unit
(** Push a span (records the open time). No-op when disabled. *)

val span_closed : string -> unit
(** Pop the innermost occurrence of the named span (entries opened
    under it are discarded — defensive against out-of-order closes).
    Unknown names are ignored. *)

val span_stack : unit -> (string * int64) list
(** Open spans, innermost first, with their open time (monotonic,
    since {!enable}). *)
