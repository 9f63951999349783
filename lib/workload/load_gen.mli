(** A pipelined load generator for the repair-serve daemon.

    Drives a running server over its newline-delimited JSON protocol:
    opens [connections] sockets, pipelines [requests] randomly generated
    repair requests across them (optionally interleaving {e poison}
    requests — well-formed envelopes with garbage payloads — and raw
    {e malformed} lines), then reads replies until every line sent has
    been answered or [wall_timeout_s] expires. Single-threaded; a
    [select] loop keeps all connections moving, so a full server output
    buffer cannot deadlock the generator.

    Latency is measured per request id from kernel write to reply line
    and recorded in a log-bucketed {!Repair_obs.Histogram}, so [p99]
    is deterministic for a given set of observations. Replies are
    classified by outcome: [ok] (further split by [degraded]), shed
    ([overloaded]/[quota-exceeded]/[draining]), failed (any other
    [ok:false]), and protocol errors (replies to malformed lines).

    The generator is the client half of the overload drills in [ci.sh]
    and the [repair-cli load] subcommand; tests drive {!Repair_serve}
    engines directly instead. *)

type spec = {
  requests : int;  (** repair requests to send (excluding poison/malformed) *)
  connections : int;  (** sockets to spread the burst across *)
  op : Repair_serve.Protocol.op;  (** [S_repair], [U_repair] or [Classify] *)
  n_rows : int;  (** rows per generated table *)
  n_attrs : int;
  n_fds : int;
  noise : float;  (** cell perturbation rate of the dirty tables *)
  distinct_fd_sets : int;  (** schemas cycled across requests (cache churn) *)
  poison_every : int option;  (** every k-th request gets unparsable FDs *)
  malformed_every : int option;  (** every k-th line is raw non-JSON garbage *)
  timeout_s : float option;  (** per-request budget sent on the wire *)
  strategy : Repair_driver.Driver.strategy option;
      (** sent as ["strategy"] when set; the server's default otherwise *)
  wall_timeout_s : float;  (** give up waiting for replies after this *)
  seed : int;
  retries : int;
      (** max retry attempts per shed request (0, the default, disables
          retries). A request answered [overloaded]/[quota-exceeded]/
          [draining] is re-sent after a jittered exponential backoff —
          [retry_backoff_ms * 2^(attempt-1) * U\[0.5, 1.5)] — drawn
          from the seeded Rng, so retry schedules are reproducible. *)
  retry_backoff_ms : int;  (** base backoff for the first retry (50) *)
}

val default_spec : spec

type report = {
  sent : int;  (** request lines written, including poison and malformed *)
  answered : int;  (** reply lines received *)
  ok : int;
  degraded : int;  (** subset of [ok] with [degraded:true] *)
  shed : int;
      (** {e terminal} shed replies — [overloaded]/[quota-exceeded]/
          [draining] with retries disabled or exhausted. A shed reply
          that schedules a retry counts in [retried] instead, so every
          answered reply lands in exactly one outcome bucket. *)
  failed : int;  (** other [ok:false] replies (parse, budget, internal...) *)
  protocol_errors : int;  (** replies classified [protocol]/[oversized] *)
  unanswered : int;  (** sent - answered at [wall_timeout_s] *)
  retried : int;
      (** shed replies that scheduled a retry (the retry line itself
          counts in [sent] again once flushed) *)
  wall_s : float;
  latency : Repair_obs.Histogram.t;  (** seconds, per answered request id *)
  rolling : Repair_obs.Json.t;
      (** client-side {!Repair_obs.Timeseries.to_json}: 0.5 s windows
          over the generator's own counters and latency histogram
          (names [load.sent], [load.answered], [load.ok], [load.shed],
          [load.retried], [load.latency], gauge [load.outstanding]),
          with the final partial window force-closed — for
          cross-checking windowed rates and rolling tails against the
          server's [stats] op *)
}

(** [run spec listen] executes one burst against a listening server,
    over non-blocking {!Wire} connections.

    @raise Failure when the server cannot be connected. *)
val run : spec -> Repair_serve.Server.listen -> report

(** [report_json r] summarises [r] (latency via
    {!Repair_obs.Histogram.summary_json}; [rolling] passed through).
    Asserts the accounting identities
    [sent = answered + unanswered] and
    [answered = ok + shed + failed + protocol_errors + retried]. *)
val report_json : report -> Repair_obs.Json.t
