(** The serving engine: admission control, load shedding, per-request
    isolation, and drain accounting — everything about the daemon's
    failure behavior {e except} sockets, so the whole overload state
    machine is drivable deterministically from tests.

    {2 Watermark / degradation state machine}

    Repair requests pass admission; control requests ([ping], [metrics],
    [invalidate-cache], [drain]) are answered inline and never queue.
    Admission looks at the queue depth [q] against two watermarks:

    - [q < degrade_watermark]: admit {b Normal} — the request runs under
      its own budget with its requested strategy;
    - [degrade_watermark <= q < queue_capacity]: admit {b Downgraded} —
      the request is forced down the existing budget ladder
      (poly → exact → approx) to its certified-approximation rung, so
      the server trades answer optimality for queue drainage before it
      ever refuses work. The response carries [degraded: true] and
      ["downgraded": "overload"];
    - [q >= queue_capacity]: {b shed} — an immediate structured
      [overloaded] error. Never a hang, never an unbounded queue.

    A per-connection quota (when configured) rejects further repair
    requests from one client with [quota-exceeded] — one misbehaving
    client cannot monopolize the queue.

    {2 Per-request isolation}

    {!execute} runs one admitted request under a
    {!Repair_runtime.Repair_error} boundary: classified errors and
    arbitrary exceptions become structured error replies and count the
    request {e quarantined}; the engine (and the server around it) keeps
    serving. Latency is observed into the per-endpoint
    ["serve.<op>"] histogram of {!Repair_obs.Metrics}.

    {2 Accounting invariant}

    Every admitted request ends in exactly one of [completed],
    [quarantined], or [cancelled] (drain-deadline cancellation):
    [admitted = completed + quarantined + cancelled + still-queued],
    checked by {!balanced} and asserted by the overload tests. Shed and
    malformed requests are answered but never admitted. *)

module Json = Repair_obs.Json

type config = {
  queue_capacity : int;  (** shed watermark: hard queue bound *)
  degrade_watermark : int;  (** depth at which admissions downgrade *)
  quota : int option;  (** per-connection admitted-request quota *)
  default_timeout_s : float option;
      (** wall budget for requests that set none (server-side cap) *)
  max_steps_cap : int option;  (** hard cap on per-request step budgets *)
  drain_deadline_s : float;
      (** seconds granted to in-flight + queued work after drain begins *)
  max_request_bytes : int;  (** longest admissible request line *)
  read_deadline_s : float option;
      (** slow-loris defense: a connection with a {e partial} request
          line buffered must make read progress within this window or
          the server evicts it ([None] disables; wholly idle keep-alive
          connections are never evicted) *)
  write_deadline_s : float option;
      (** slow-reader defense: a connection with pending replies must
          accept bytes within this window or be evicted ([None]
          disables) *)
  slow_ms : float option;
      (** slow-request threshold: a settled request whose solver wall
          time is at least this many milliseconds fires the [on_slow]
          callback with a structured JSON record ([None] disables) *)
  stats_interval_s : float;  (** width of one time-series window *)
  stats_windows : int;  (** time-series ring capacity *)
}

(** queue 64, degrade at 32, no quota, 10 s default request budget, no
    step cap, 5 s drain deadline, 8 MiB request lines, 30 s read/write
    deadlines, no slow threshold, 60 × 1 s stats windows *)
val default_config : config

type admission = Normal | Downgraded

type pending = {
  conn : int;  (** connection cookie, routed back by the server *)
  request : Protocol.request;
  admission : admission;
  req_id : string;
      (** deterministic request id, ["c<conn>.<admission #>"] — carried
          by trace events ([args.req]) and slow-request records *)
  enqueued_at : float;  (** admission wall-clock, for queue-wait *)
}

type t

(** [create ?on_invalidate ?on_slow ?clock ?gauges config] —
    [on_invalidate] backs the [invalidate-cache] op and returns how many
    entries were dropped (default: none); [on_slow] receives one JSON
    record per request at or above [slow_ms] (default: drop them);
    [clock] drives the time-series windows only (injectable for
    deterministic tests; default [Unix.gettimeofday]); [gauges] are
    sampled next to [serve.in_flight] and [serve.queue_depth], in the
    time-series windows and the exposition (default: none).
    @raise Invalid_argument on nonsensical watermarks (capacity < 1,
    degrade watermark outside [1..capacity], non-positive deadlines,
    byte limit, stats interval, or window count). *)
val create :
  ?on_invalidate:(unit -> int) ->
  ?on_slow:(Json.t -> unit) ->
  ?clock:(unit -> float) ->
  ?gauges:(unit -> (string * float) list) ->
  config ->
  t

val config : t -> config
val mode : t -> [ `Accepting | `Draining ]

(** [drain t] stops admission; already-queued work remains runnable. *)
val drain : t -> unit

val queue_depth : t -> int

(** Requests taken off the queue but not yet settled. *)
val in_flight : t -> int

(** [handle_line t ~conn ~quota_used line] processes one request line:
    - [`Reply line] — answer immediately (control op, malformed line, or
      a shed request);
    - [`Enqueued] — repair request admitted; the server executes it
      later via {!take}/{!execute} (the caller should count it against
      the connection's quota);
    - [`Drain line] — a [drain] op: reply {e and} stop admission. *)
val handle_line :
  t ->
  conn:int ->
  quota_used:int ->
  string ->
  [ `Reply of string | `Enqueued | `Drain of string ]

(** [reject_oversized t] accounts one over-limit line and returns its
    error reply ([oversized]). The server calls this instead of
    {!handle_line} when a line exceeds [max_request_bytes] — the line
    itself need not be materialized. *)
val reject_oversized : t -> string

(** The executor: produces the [ok] response fields for one request.
    [conn] is the connection cookie of the admitting connection (the
    [c<conn>] of the request id) — per-session executors (the stream op)
    key their state on it. [degraded] is true for downgraded admissions —
    implementations run the certified-approximation rung. May raise
    {!Repair_runtime.Repair_error.Error} (classified reply) or anything
    else (internal-error reply); {!execute} isolates both. *)
type exec =
  conn:int -> degraded:bool -> Protocol.request -> (string * Json.t) list

(** [take t] pops the oldest admitted request, if any. *)
val take : t -> pending option

(** [execute t ~exec p] runs one admitted request under the isolation
    boundary and returns its response line. Counts [completed] (or
    [quarantined] on failure) and, for downgraded admissions or
    solver-side degradation, [degraded]. Equal to
    [settle t p (run_exec ~exec p)]. *)
val execute : t -> exec:exec -> pending -> string

(** The outcome of the pure half of {!execute}: the solver result (or
    its classified error), the wall-clock spent, and the metrics/span
    capture the work recorded. *)
type executed

(** [run_exec ~exec p] — the pure half of {!execute}: runs the solver
    under the per-request isolation boundary without touching any
    engine state, so a {!Repair_par.Pool} may run several queued
    requests' [run_exec] concurrently on worker domains. The work runs
    under {!Repair_obs.Metrics.capture} with the trace request context
    set to [p.req_id], so worker-domain spans carry the request id and
    the capture travels back with the result. *)
val run_exec : exec:exec -> pending -> executed

(** [settle t p executed] — the mutating half of {!execute}: merges the
    capture into the owning domain's registry, records latency,
    queue-wait, and counters, fires the slow-request callback when the
    [slow_ms] threshold is met, and builds the reply line. Must run on
    the engine's owning domain; settling a batch in take-order preserves
    the sequential server's accounting and reply order exactly. *)
val settle : t -> pending -> executed -> string

(** [cancel_remaining t] empties the queue, counting each request
    [cancelled], and returns the [(conn, reply-line)] pairs to send —
    the drain deadline has expired. *)
val cancel_remaining : t -> (int * string) list

(** {2 Introspection} *)

(** The ["serve"] accounting section: received/admitted/completed/
    degraded/shed/quarantined/cancelled/protocol_errors counters, queue
    depth high-water mark, and the current mode. *)
val accounting_json : t -> Json.t

(** [snapshot_json t] — the full metrics snapshot
    ({!Repair_obs.Metrics.snapshot}) with the ["serve"] accounting
    section prepended; the payload of the [metrics] op and of the final
    drain flush. *)
val snapshot_json : t -> Json.t

(** [balanced t] — does the accounting identity hold?
    [admitted = completed + quarantined + cancelled + queue_depth]. *)
val balanced : t -> bool

(** {2 Live telemetry} *)

(** The engine's rolling time-series over the metrics registry (plus the
    [serve.queue_depth] / [serve.in_flight] gauges). Windows close only
    via {!tick_stats}. *)
val timeseries : t -> Repair_obs.Timeseries.t

(** [tick_stats t] — close a time-series window if [stats_interval_s]
    has elapsed on the engine's clock; cheap no-op otherwise. The server
    poll loop calls this every iteration. *)
val tick_stats : t -> unit

(** The [stats] op's response fields: [("stats", timeseries)],
    [("totals", cumulative counters)], [("serve", accounting)],
    [("exposition", text)]. *)
val stats_fields : t -> (string * Json.t) list

(** The Prometheus-style text exposition of the current registry state
    (cumulative counters, live gauges, cumulative histograms) via
    {!Repair_obs.Expo.render}. *)
val exposition : t -> string

type counters = {
  received : int;  (** request lines seen, malformed included *)
  admitted : int;
  completed : int;
  degraded : int;  (** completed with a degraded/downgraded answer *)
  shed : int;  (** overloaded + quota-exceeded + draining rejections *)
  quarantined : int;  (** isolated per-request failures *)
  cancelled : int;  (** drain-deadline cancellations *)
  protocol_errors : int;  (** malformed or oversized lines *)
  queue_depth_max : int;
}

val counters : t -> counters
