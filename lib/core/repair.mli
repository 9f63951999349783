(** Single entry point for the library: re-exports of every subsystem plus
    a high-level driver that picks the right algorithm from the paper's
    dichotomies.

    {1 Layout}

    - {!Relational}: values, schemas, tuples, weighted tables, CSV;
    - {!Fd}: functional dependencies, closures, covers, lhs analysis;
    - {!Graph}: vertex cover, bipartite matching, triangle packing;
    - {!Sat}: CNF and MAX-SAT (hardness-gadget sources);
    - {!Srepair}: Algorithm 1, exact baseline, 2-approximation;
    - {!Urepair}: tractable U-repairs, 2·mlc approximation, exact search;
    - {!Dichotomy}: OSRSucceeds, five-class certificates, fact-wise
      reductions;
    - {!Mpd}: the Most Probable Database problem;
    - {!Reductions}: executable hardness gadgets;
    - {!Workload}: datasets and generators;
    - {!Enumerate}: S-repair enumeration and optimal-repair counting
      (the PODS'17 connection, reference [26]);
    - {!Cfd}: conditional FDs, {!Denial}: binary denial constraints, and
      {!Mixed}: mixed deletion/update repairs, and {!Prioritized}:
      prioritized repairing — the Section 5 extension directions;
    - {!Cqa}: consistent query answering over the repair space;
    - {!Cleaning}: dirtiness estimation and interactive cleaning sessions
      (the human-in-the-loop workflow of Section 1).

    The {!Driver} chooses automatically: polynomial algorithms when the
    dichotomy permits, exact search on small instances otherwise, and
    certified approximations at scale. {!Runtime} supplies the resilience
    layer — cooperative budgets, the structured error taxonomy, and the
    deterministic fault injector — and the driver degrades along the
    ladder poly → exact → approx whenever a budget runs out. {!Obs} is
    the observability layer: counters and hierarchical spans the solvers
    report into (off by default; see {!Obs.Metrics}). *)

module Relational = Repair_relational
module Fd = Repair_fd
module Graph = Repair_graph
module Sat = Repair_sat
module Srepair = Repair_srepair
module Urepair = Repair_urepair
module Dichotomy = Repair_dichotomy
module Mpd = Repair_mpd
module Reductions = Repair_reductions
module Workload = Repair_workload
module Enumerate = Repair_enumerate
module Cfd = Repair_cfd
module Denial = Repair_denial
module Mixed = Repair_mixed
module Cqa = Repair_cqa
module Prioritized = Repair_prioritized
module Cleaning = Repair_cleaning
module Runtime = Repair_runtime
module Obs = Repair_obs

(** The domain-pool parallelism layer ({!Repair_par}): a fixed-size
    domain pool with bit-deterministic batch semantics (DESIGN §13).
    Every [?pool]/[?domains] parameter below threads through to it;
    results are bit-identical with and without a pool. *)
module Par = Repair_par

(** The incremental streaming repair layer ({!Repair_stream}):
    delta-driven sessions that keep a repair fresh at O(affected-group)
    cost per update (DESIGN §16). *)
module Stream = Repair_stream

(** The Auto ladder and the strategy vocabulary. *)
module Driver = Repair_driver.Driver

(** [load_table path] reads the table at [path], named ["T"]: JSONL
    when [path] ends in [.jsonl], CSV otherwise.
    @raise Runtime.Repair_error.Error on an unreadable or bad file. *)
val load_table : string -> Repair_relational.Table.t

(** [table_text path tbl] renders [tbl] in the format [path] names. *)
val table_text : string -> Repair_relational.Table.t -> string

(** The journaled batch runner ({!Repair_batch}) wired to the {!Driver}:
    a manifest of repair jobs executed with per-job isolation, an
    fsync'd write-ahead journal, checkpoint/resume, bounded retries with
    deterministic exponential backoff, and poison-job quarantine. See
    {!Repair_batch.Runner} for the protocol and DESIGN §9 for the
    journal format. *)
module Batch : sig
  module Manifest = Repair_batch.Manifest
  module Journal = Repair_batch.Journal
  module Runner = Repair_batch.Runner

  (** [exec_job job] parses the job's FDs, loads its input table
      ({!load_table}), runs the {!Driver} under the job's
      budget/strategy/policy, writes the repaired table to [job.output]
      when set (atomically, with
      {!Runtime.Io_fault.write_file_atomic}), and returns the outcome.

      @raise Runtime.Repair_error.Error on any per-job failure — the
      runner catches and classifies it. *)
  val exec_job : Repair_batch.Manifest.job -> Repair_batch.Runner.outcome

  (** [run ?pool ?retries ?backoff_ms ?resume ~journal manifest] is
      {!Repair_batch.Runner.run} with {!exec_job} as the executor. With
      [pool], first attempts run speculatively on the pool; the journal
      is byte-identical (modulo wall-clock fields) either way. *)
  val run :
    ?pool:Repair_par.Pool.t ->
    ?retries:int ->
    ?backoff_ms:int ->
    ?resume:bool ->
    journal:string ->
    Repair_batch.Manifest.t ->
    Repair_batch.Runner.summary
end

(** The serving daemon ({!Repair_serve}) wired to the {!Driver}: the
    newline-delimited JSON protocol served from a single-threaded select
    loop, with watermark admission control (downgrade, then shed),
    per-request budget/error isolation, a bounded LRU of warm FD-set
    state, and graceful drain. See {!Repair_serve.Server} for the event
    loop and DESIGN §12 for the overload ladder. *)
module Serve : sig
  open Repair_fd
  module Protocol = Repair_serve.Protocol
  module Cache = Repair_serve.Cache
  module Engine = Repair_serve.Engine
  module Server = Repair_serve.Server

  (** Warm per-FD-set state kept in the serving cache: the parsed and
      normalized sets, both dichotomy verdicts, and the lazily-rendered
      complexity report. Keyed by the raw FD string of the request. *)
  type warm = {
    fds : Fd_set.t;
    normalized : Fd_set.t;
    s_tractable : bool;
    u_tractable : bool;
    describe : string Lazy.t;
  }

  val default_cache_capacity : int

  (** [make_cache ()] is the warm-state LRU ([capacity] defaults to
      {!default_cache_capacity}), registered under ["serve.fd-cache"]
      in {!Obs.Metrics}. *)
  val make_cache : ?capacity:int -> unit -> (string, warm) Cache.t

  (** One connection's streaming repair session (DESIGN §16): the
      {!Stream.Session} plus the FD text it was initialized under. *)
  type session_slot = {
    fds_text : string;
    session : Repair_stream.Session.t;
  }

  val default_session_capacity : int

  (** [make_sessions ()] is the per-connection stream-session LRU,
      registered under ["stream.sessions"] in {!Obs.Metrics}. Keyed by
      the engine's connection cookie. *)
  val make_sessions : ?capacity:int -> unit -> (int, session_slot) Cache.t

  (** [exec ~cache ~sessions ~mutex ~conn ~degraded ~budget req]
      executes one repair request against the {!Driver}: [classify]
      answers from the warm cache; [s-repair]/[u-repair] run the ladder
      with [on_budget:`Degrade] under [budget], forcing the
      [Approximate] rung when [degraded]; [stream] applies the
      request's deltas to connection [conn]'s session under [mutex] and
      returns the refreshed summary (a nonempty [table] field
      (re)initializes the session, an empty one continues it).

      @raise Runtime.Repair_error.Error on any classified failure — the
      engine catches it at the isolation boundary.
      @raise Invalid_argument on control ops (the engine answers those). *)
  val exec :
    cache:(string, warm) Cache.t ->
    sessions:(int, session_slot) Cache.t ->
    mutex:Mutex.t ->
    conn:int ->
    degraded:bool ->
    budget:Runtime.Budget.t ->
    Protocol.request ->
    (string * Obs.Json.t) list

  (** [run ?config ?cache_capacity ?metrics_out ?slow_log ?domains
      listen] is {!Server.run} with a fresh warm cache, a fresh stream
      session registry, and {!exec}; [invalidate] requests clear both.
      A connection's session is dropped when the connection closes
      (after its last queued request), and the gauge [stream.sessions]
      counts the resident sessions. [slow_log] is the
      slow-request record destination and [trace_out] the Chrome
      trace-event destination (see {!Server.run}). With [domains > 1]
      (default [1]) the serve owns a {!Par.Pool} for its lifetime and
      executes queued requests' solver halves on it, batch by batch,
      under the unchanged admission ladder. Returns the process exit
      code. *)
  val run :
    ?config:Engine.config ->
    ?cache_capacity:int ->
    ?metrics_out:string ->
    ?slow_log:string ->
    ?trace_out:string ->
    ?domains:int ->
    Server.listen ->
    int
end
