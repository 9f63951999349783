(** Bounded event tracer: a ring buffer of begin/end/instant events with
    monotone timestamps, recorded by the same instrumentation points that
    feed {!Metrics} (every [Metrics.with_span] emits a matched
    begin/end pair; a few milestones emit instants).

    Design contract, mirroring {!Metrics}:

    - {e off by default}: while disabled every call is one branch and
      records nothing, so the solvers behave identically with tracing on
      or off (they never read the tracer);
    - {e O(1) record}: an event is one ring-buffer slot write; when the
      buffer is full the {e oldest} event is dropped and the
      [trace.dropped] counter bumped — tracing never grows memory and
      never blocks a hot loop;
    - {e monotone timestamps}: [ts] is seconds since {!enable} (or the
      last {!reset}), clamped to be non-decreasing per writer even if
      the wall clock steps backwards.

    The tracer is global mutable state with a {e single-writer} domain
    contract: the ring belongs to the domain that called {!enable}.
    Events emitted from any other domain are silently discarded —
    {e unless} a capture buffer is installed with {!with_capture}, in
    which case they are buffered domain-locally and delivered to the
    installer, which can feed them to the owner for {!inject}ion. This
    is how {!Repair_par.Pool} gives worker-domain spans a lane in the
    trace (distinct [tid]) without any cross-domain mutation of the
    ring. Export to the Chrome trace-event format lives in
    {!Trace_export}. *)

type kind =
  | Begin  (** a span opened ([ph:"B"] in the Chrome format) *)
  | End  (** the innermost open span closed ([ph:"E"]) *)
  | Instant  (** a point event, e.g. a budget checkpoint ([ph:"i"]) *)

type event = {
  seq : int;  (** 0-based emission index, monotone across drops *)
  ts : float;  (** seconds since enable/reset; non-decreasing per [tid] *)
  kind : kind;
  name : string;
  req : string option;
      (** originating request id ({!with_request}), if any — exported as
          [args.req] in the Chrome format *)
  tid : int;
      (** trace lane: {!tid_main} for events emitted by the ring owner,
          [2 + task_index] for pool-worker events re-injected by
          {!inject}; 0 while still in a capture buffer *)
}

(** The [tid] of events the owner domain writes directly: [1]. *)
val tid_main : int

(** {1 Switching} *)

(** Ring capacity used when [enable] is not given one: [65536] events. *)
val default_capacity : int

(** [enable ?capacity ()] switches tracing on with an empty ring of
    [capacity] events (default {!default_capacity}, minimum 1) and
    restarts the clock. Re-enabling an enabled tracer resets it. *)
val enable : ?capacity:int -> unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** True when the calling domain owns the ring (it called {!enable}) —
    the precondition for {!inject} and for direct ring writes. *)
val owned : unit -> bool

(** [reset ()] empties the ring, zeroes [seq]/[dropped], and restarts the
    clock; the enabled flag and capacity are left as-is. *)
val reset : unit -> unit

(** {1 Recording} *)

val begin_ : string -> unit
val end_ : string -> unit
val instant : string -> unit

(** {1 Request context} *)

(** [with_request id f] runs [f] with the domain-local request context
    set to [id]: every event emitted by this domain inside [f] (ring or
    capture buffer) carries [req = Some id]. Contexts nest; the previous
    context is restored even when [f] raises. *)
val with_request : string -> (unit -> 'a) -> 'a

(** The current domain's request context, if set. *)
val current_request : unit -> string option

(** {1 Cross-domain capture} *)

(** [with_capture sink f] runs [f] with a fresh domain-local capture
    buffer installed: every event this domain emits inside [f] is
    buffered (with its own monotone clamp, on the shared
    since-[enable] timeline) instead of going to the ring. When [f]
    returns {e or raises}, the previous buffer state is restored and
    [sink] receives the buffered events in emission order — so a
    worker's events survive even when its task throws. Buffered events
    have provisional [seq]/[tid]; {!inject} reassigns both. Buffering is
    gated by buffer presence, not by {!enabled} — callers decide on the
    submitting domain whether tracing is on. *)
val with_capture : (event list -> unit) -> (unit -> 'a) -> 'a

(** [inject ?tid events] appends captured events to the ring, in order,
    re-stamping [seq] from the ring's counter and [tid] (default [2])
    onto each; timestamps are preserved as captured. Owner-only and
    no-op while disabled, like {!begin_}. Injection participates in
    drop-oldest accounting but does not advance the owner lane's
    monotone clamp — worker lanes are monotone per [tid], not
    interleaved with lane 1. *)
val inject : ?tid:int -> event list -> unit

(** {1 Reading} *)

(** Events currently in the ring, oldest first. When [dropped () > 0]
    the head of the list may contain [End] events whose [Begin] was
    evicted. *)
val events : unit -> event list

(** Events evicted by ring overflow since the last reset. Surfaced as
    the ["trace.dropped"] counter in {!Metrics.counters} and in the
    [otherData] block of the Chrome export. *)
val dropped : unit -> int

(** The capacity of the current ring. *)
val capacity : unit -> int
