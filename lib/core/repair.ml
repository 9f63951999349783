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

module Par = Repair_par
module Stream = Repair_stream

module Driver = Repair_driver.Driver

let is_jsonl path = Filename.check_suffix path ".jsonl"

let load_table path =
  if is_jsonl path then Repair_relational.Jsonl_io.load ~name:"T" path
  else Repair_relational.Csv_io.load ~name:"T" path

let table_text path tbl =
  if is_jsonl path then Repair_relational.Jsonl_io.to_string tbl
  else Repair_relational.Csv_io.to_string tbl

module Batch = struct
  module Manifest = Repair_batch.Manifest
  module Journal = Repair_batch.Journal
  module Runner = Repair_batch.Runner
  module Budget = Repair_runtime.Budget
  module Repair_error = Repair_runtime.Repair_error

  (* The Driver-backed executor the CLI uses. Raises Repair_error.Error
     for everything the runner should isolate: a bad FD string or input
     file makes the job poison, a per-job budget under `Fail surfaces as
     a transient failure the runner may retry. *)
  let exec_job (job : Manifest.job) : Runner.outcome =
    let d = Driver.parse_fds ~source:(Fmt.str "<fds:%s>" job.id) job.fds in
    let tbl = load_table job.input in
    let budget =
      Budget.create ?timeout_s:job.timeout_s ?max_steps:job.max_steps ()
    in
    let solve =
      match job.kind with
      | Manifest.S_repair -> Driver.s_repair_result
      | Manifest.U_repair -> Driver.u_repair_result
    in
    let result =
      solve ~strategy:job.strategy ~budget ~on_budget:job.on_budget d tbl
    in
    match result with
    | Error e -> Repair_error.raise_error e
    | Ok r ->
      Option.iter
        (fun path ->
          Repair_runtime.Io_fault.write_file_atomic path
            (table_text path r.result))
        job.output;
      {
        Runner.status = (if r.degraded then `Degraded else `Ok);
        distance = r.distance;
        method_used = r.method_used;
      }

  let run ?pool ?retries ?backoff_ms ?resume ~journal manifest =
    Runner.run ?pool ?retries ?backoff_ms ?resume ~exec:exec_job ~journal
      manifest
end

module Serve = struct
  module Protocol = Repair_serve.Protocol
  module Cache = Repair_serve.Cache
  module Engine = Repair_serve.Engine
  module Server = Repair_serve.Server
  module Budget = Repair_runtime.Budget
  module Repair_error = Repair_runtime.Repair_error
  open Repair_relational
  open Repair_fd
  module Json = Repair_obs.Json

  type warm = {
    fds : Fd_set.t;
    normalized : Fd_set.t;
    s_tractable : bool;
    u_tractable : bool;
    describe : string Lazy.t;
  }

  let default_cache_capacity = 128

  let make_cache ?(capacity = default_cache_capacity) () : (string, warm) Cache.t =
    Cache.create ~name:"serve.fd-cache" ~capacity

  (* Key: the raw FD string — the request's "schema". The warm value
     carries everything derivable from the FD set alone: the parsed and
     normalized sets, both dichotomy verdicts, and (lazily, for the
     classify op) the full complexity report. A parse failure is raised,
     never cached — see Cache.find_or_add. *)
  let lookup cache fds_text =
    Cache.find_or_add cache fds_text (fun () ->
        let d = Driver.parse_fds ~source:"<fds>" fds_text in
        {
          fds = d;
          normalized = Fd_set.normalize d;
          s_tractable = Repair_dichotomy.Simplify.succeeds d;
          u_tractable = Repair_urepair.Opt_u_repair.tractable d;
          describe = lazy (Driver.describe d);
        })

  (* Streaming sessions (DESIGN §16): per-connection state, keyed by
     the engine's connection cookie. A bounded LRU caps resident
     sessions (counters stream.sessions.hit/.miss/.evict); a mutex
     serializes session
     access because pool worker domains may execute two stream requests
     concurrently. A stream request with a nonempty table (re)builds the
     connection's session from it; with an empty table it continues the
     existing one (same FD text required — a mismatch is a structured
     parse reject). *)
  type session_slot = { fds_text : string; session : Repair_stream.Session.t }

  let default_session_capacity = 64

  let make_sessions ?(capacity = default_session_capacity) () :
      (int, session_slot) Cache.t =
    Cache.create ~name:"stream.sessions" ~capacity

  let parse_table (req : Protocol.request) =
    match req.format with
    | Protocol.Csv -> Csv_io.parse_string ~file:"<request>" ~name:"T" req.table
    | Protocol.Jsonl ->
      Jsonl_io.parse_string ~file:"<request>" ~name:"T" req.table

  let render_table (req : Protocol.request) tbl =
    match req.format with
    | Protocol.Csv -> Csv_io.to_string tbl
    | Protocol.Jsonl -> Jsonl_io.to_string tbl

  let report_fields req (r : Driver.report) =
    [ ("distance", Json.Float r.distance);
      ("method", Json.String r.method_used);
      ("optimal", Json.Bool r.optimal);
      ("ratio", Json.Float r.ratio);
      ("degraded", Json.Bool r.degraded);
      ("fallbacks", Json.List (List.map (fun f -> Json.String f) r.fallbacks));
      ("table", Json.String (render_table req r.result)) ]

  let stream_exec ~cache ~sessions ~mutex ~conn (req : Protocol.request) =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) @@ fun () ->
    let warm = lookup cache req.fds in
    let session =
      match Cache.find sessions conn with
      | Some slot when slot.fds_text = req.fds && req.table = "" ->
        slot.session
      | _ ->
        let base =
          if req.table = "" then
            Repair_error.raise_error
              (Parse
                 {
                   source = "<request>";
                   line = None;
                   detail =
                     "stream: no live session for this connection (or the \
                      FD set changed); send a \"table\" to initialize one";
                 })
          else parse_table req
        in
        let session = Repair_stream.Session.create warm.fds base in
        Cache.add sessions conn { fds_text = req.fds; session };
        session
    in
    (* Apply the delta lines in order. The first malformed or
       inapplicable line stops the batch with a structured reject; the
       valid prefix stays applied and the session remains live. *)
    let lines = String.split_on_char '\n' req.deltas in
    let applied = ref 0 in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then begin
          let d = Repair_stream.Delta.parse ~line:(i + 1) line in
          Repair_stream.Session.tick session d;
          incr applied
        end)
      lines;
    let r = Repair_stream.Session.summary session in
    let st = Repair_stream.Session.stats session in
    report_fields req r
    @ [ ("applied", Json.Int !applied);
        ("ticks", Json.Int st.Repair_stream.Session.ticks);
        ("rows", Json.Int st.Repair_stream.Session.live) ]

  let exec ~cache ~sessions ~mutex ~conn ~degraded ~budget
      (req : Protocol.request) =
    match req.Protocol.op with
    | Protocol.Classify ->
      let warm = lookup cache req.fds in
      [ ("report", Json.String (Lazy.force warm.describe));
        ("s_tractable", Json.Bool warm.s_tractable);
        ("u_tractable", Json.Bool warm.u_tractable) ]
    | Protocol.S_repair | Protocol.U_repair ->
      let warm = lookup cache req.fds in
      let tbl = parse_table req in
      (* The overload downgrade: a request admitted above the degrade
         watermark skips straight to the bottom rung of the ladder — the
         certified polynomial approximation — whatever it asked for. *)
      let strategy = if degraded then Driver.Approximate else req.strategy in
      let solve =
        match req.Protocol.op with
        | Protocol.S_repair -> Driver.s_repair_result
        | _ -> Driver.u_repair_result
      in
      (match solve ~strategy ~budget ~on_budget:`Degrade warm.fds tbl with
      | Error e -> Repair_error.raise_error e
      | Ok r -> report_fields req r)
    | Protocol.Stream ->
      (* Streaming sessions run under unlimited budgets (the identity
         contract with a cold recompute leaves no room for exhaustion
         points); admission control still queues and sheds them. *)
      ignore budget;
      stream_exec ~cache ~sessions ~mutex ~conn req
    | Protocol.Ping | Protocol.Metrics | Protocol.Stats
    | Protocol.Invalidate_cache | Protocol.Drain ->
      (* Control ops are answered by the engine and never reach an
         executor. *)
      invalid_arg "Serve.exec: control op"

  (* A connection's session goes when the connection does: cookies are
     never reused, so a closed connection's session could only wait in
     the LRU for its eviction. *)
  let drop_session ~sessions ~mutex conn =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) @@ fun () ->
    Cache.remove sessions conn

  let run ?config ?cache_capacity ?metrics_out ?slow_log ?trace_out
      ?(domains = 1) listen =
    let cache = make_cache ?capacity:cache_capacity () in
    let sessions = make_sessions () in
    let mutex = Mutex.create () in
    let serve ?pool () =
      Server.run ?config ?metrics_out ?slow_log ?trace_out ?pool
        ~on_close:(drop_session ~sessions ~mutex)
        ~gauges:(fun () ->
          [ ("stream.sessions", float_of_int (Cache.length sessions)) ])
        ~on_invalidate:(fun () -> Cache.clear cache + Cache.clear sessions)
        ~exec:(fun ~conn ~degraded ~budget req ->
          exec ~cache ~sessions ~mutex ~conn ~degraded ~budget req)
        listen
    in
    if domains <= 1 then serve ()
    else
      Repair_par.Pool.with_pool ~domains (fun pool -> serve ~pool ())
end
