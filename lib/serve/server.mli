(** The socket shell around {!Engine}: a single-threaded, select-driven
    daemon speaking the newline-delimited JSON {!Protocol} over a Unix
    or loopback-TCP socket.

    {2 Event loop}

    One [select] loop multiplexes the listening socket and every client
    connection; between polls it executes at most one admitted request,
    so I/O stays responsive while the queue drains. Requests remember
    their connection; replies to connections that have since closed are
    dropped (the accounting still records the outcome — a vanished
    client cannot corrupt the server's books). Per-connection buffers
    are bounded in both directions: request lines beyond the engine's
    [max_request_bytes] are answered with an [oversized] error and the
    rest of the line is discarded; a client that stops reading is
    disconnected once its pending output exceeds {!max_conn_out_bytes}.

    {2 Graceful drain}

    SIGTERM, SIGINT, or a [drain] request stops admission: the listening
    socket closes, queued requests keep executing — each under a budget
    capped by the remaining drain allowance
    ({!Repair_runtime.Budget.remaining_s}) — and when the drain deadline
    expires, still-queued requests are answered with structured
    [cancelled] errors. Either way the final metrics snapshot
    ({!Engine.snapshot_json}) is flushed before exit, so
    [admitted = completed + quarantined + cancelled] holds in the last
    thing the daemon writes.

    {2 Exit codes}

    {!run} returns the process exit code: [0] — clean drain, every
    admitted request executed; {!exit_drain_cancelled} ([10]) — the
    drain deadline forced cancellations. The caller [exit]s with it. *)

module Json = Repair_obs.Json

type listen =
  | Unix_sock of string  (** Unix-domain socket path (stale file replaced) *)
  | Tcp of int  (** TCP port, bound to 127.0.0.1 only *)

(** [listen_name l] — the socket path, or ["127.0.0.1:PORT"]. *)
val listen_name : listen -> string

(** [10] — the drain deadline expired with requests still queued; they
    were cancelled (with structured replies), not silently dropped. *)
val exit_drain_cancelled : int

(** Pending output cap per connection (16 MiB); slower readers are
    disconnected rather than buffered without bound. *)
val max_conn_out_bytes : int

(** The Driver-backed executor contract: [budget] is the per-request
    budget already capped by the server (request [timeout_s]/[max_steps],
    the configured defaults, and — during drain — the remaining drain
    allowance). See {!Engine.exec} for [degraded] and error handling. *)
type exec =
  conn:int ->
  degraded:bool ->
  budget:Repair_runtime.Budget.t ->
  Protocol.request ->
  (string * Json.t) list

(** [run ?config ?on_invalidate ?on_close ?gauges ?metrics_out ?slow_log
    ?pool ~exec listen] serves until a drain completes, then writes the
    final snapshot to [metrics_out] (a path, ["-"] for stdout; default
    stderr) and returns the exit code. Enables {!Repair_obs.Metrics} for
    the lifetime of the serve. SIGTERM/SIGINT handlers are installed for
    the duration and restored on exit.

    [on_close cookie] is called on the server's domain once a
    connection has closed and every request it had admitted has
    settled, so per-connection state dropped by the hook is not
    re-created by a request still queued. Cookies are never reused.
    [gauges] are passed to {!Engine.create}; they are sampled on the
    server's domain, never while requests execute.

    [slow_log] is where slow-request records go when the engine's
    [slow_ms] threshold is configured: a path (appended, created 0644),
    ["-"] for stdout, default stderr. One JSON record per line, flushed
    per record.

    [trace_out] enables the {!Repair_obs.Trace} ring for the serve's
    lifetime and writes the Chrome trace-event document there (atomic
    write) after drain. Request spans carry their wire request id as
    [args.req]; with [pool], worker-domain spans ride per-task lanes
    ([tid >= 2]) via capture/injection.

    The poll loop ticks the engine's rolling time-series once per
    iteration ({!Engine.tick_stats}), so the [stats] op served from a
    live daemon carries windows that close within one poll timeout of
    the configured interval.

    With [pool], each poll drains up to [Repair_par.Pool.domains pool]
    queued requests: their pure halves ({!Engine.run_exec}) run as pool
    tasks, and each request then settles ({!Engine.settle}) on the
    server's domain in take-order — replies, counters, and the
    accounting identity are exactly those of the sequential server. The
    admission ladder is untouched: budgets are computed before dispatch
    on the owning domain, so drain-deadline capping still sees a
    single-writer drain state. The pool is borrowed, not owned; the
    caller shuts it down.

    @raise Repair_runtime.Repair_error.Error ([Io]) when the socket
    cannot be bound. *)
val run :
  ?config:Engine.config ->
  ?on_invalidate:(unit -> int) ->
  ?on_close:(int -> unit) ->
  ?gauges:(unit -> (string * float) list) ->
  ?metrics_out:string ->
  ?slow_log:string ->
  ?trace_out:string ->
  ?pool:Repair_par.Pool.t ->
  exec:exec ->
  listen ->
  int
