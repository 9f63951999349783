(** The client half of the [repair-cli top] operator view: fetch one
    [stats] reply from a running repair-serve daemon and render it.

    {!fetch} opens a blocking one-shot {!Wire} connection, sends a single
    [stats] request, and parses the reply into a {!sample}: the rolling
    time-series object ({!Repair_obs.Timeseries.to_json} shape), the
    cumulative counter totals, the ["serve"] accounting section, and the
    Prometheus-style text exposition.

    Two renderers share the sample: {!pp_machine} prints stable
    [key value] lines for scripts ([repair-cli top --once]), and
    {!pp_dashboard} prints the human view the live [top] loop redraws.
    Rolling tails are rebuilt via {!Repair_obs.Histogram.of_summary_json}
    so quantiles come from the library's own estimator, not a client
    reimplementation. *)

type sample = {
  stats : Repair_obs.Json.t;  (** the reply's ["stats"] time-series object *)
  totals : (string * int) list;  (** cumulative counters, sorted by name *)
  serve : Repair_obs.Json.t;  (** the ["serve"] accounting section *)
  exposition : string;  (** Prometheus-style text exposition *)
}

(** [fetch listen] — one blocking [stats] round-trip over {!Wire}.
    [Error] carries a human-readable reason (unreachable server, closed
    connection, refused op, unparsable reply); it never raises. *)
val fetch : Repair_serve.Server.listen -> (sample, string) result

val exposition : sample -> string

(** Windowed per-second counter rates, as served. *)
val rates : sample -> (string * float) list

(** Gauges sampled at the newest window's close. *)
val gauges : sample -> (string * float) list

(** Rolling histograms (merged per-window deltas), rebuilt from the
    summary JSON; entries that fail to parse are dropped. *)
val rolling : sample -> (string * Repair_obs.Histogram.t) list

(** Closed windows currently held by the server's ring. *)
val n_windows : sample -> int

(** Seconds covered by the held windows. *)
val span_s : sample -> float

(** The streaming-repair row, condensed from the [stream.*] counters
    (DESIGN §16). *)
type stream_row = {
  ticks : int;
  ticks_per_s : float;  (** windowed rate of [stream.ticks] *)
  affected_ratio : float;  (** dirty blocks / live blocks, cumulative *)
  cache_hit_rate : float;  (** block-cache hits / (hits + misses) *)
}

(** [stream s] is [None] until the daemon has ticked a stream session
    ([total.stream.ticks = 0]). *)
val stream : sample -> stream_row option

(** Stable machine-readable lines, one [key value] pair each:
    [windows]/[span_s]/[mode]/[queue_depth], then [gauge.*], [rate.*],
    [p50.*_ms]/[p99.*_ms]/[rolling_count.*], then — only once stream
    ticks exist — [stream.ticks_per_s]/[stream.affected_ratio]/
    [stream.cache_hit_rate], then [total.*]. *)
val pp_machine : Format.formatter -> sample -> unit

(** The live dashboard body: header, gauges, rates, rolling tails, the
    STREAM section (hidden until ticks exist), cumulative totals. *)
val pp_dashboard : Format.formatter -> sample -> unit
