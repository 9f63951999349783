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

module Driver = struct
  open Repair_relational
  open Repair_fd
  module Budget = Repair_runtime.Budget
  module Repair_error = Repair_runtime.Repair_error
  module Pool = Repair_par.Pool

  let src = Logs.Src.create "repair.driver" ~doc:"algorithm selection"

  module Log = (val Logs.src_log src : Logs.LOG)

  type strategy = Auto | Poly | Exact | Approximate

  type on_budget = [ `Fail | `Degrade ]

  type report = {
    result : Table.t;
    distance : float;
    optimal : bool;
    ratio : float;
    method_used : string;
    degraded : bool;
    fallbacks : string list;
  }

  let exact_size_limit = 64

  let s_poly_name = "OptSRepair (Algorithm 1)"

  let s_exact_name = "exact minimum-weight vertex cover (baseline)"

  let s_approx_name = "Bar-Yehuda–Even 2-approximation (Proposition 3.3)"

  let u_poly_name = "tractable-case solver (Section 4)"

  let u_exact_name = "bounded exhaustive search (baseline)"

  let u_approx_name =
    "combined per-component approximation (Theorems 4.1/4.3/4.12)"

  (* One rung of the degradation ladder: run [f]; when it dies of a
     degradable error (budget exhausted, size gate, injected fault) and the
     policy allows, run the certified fallback instead and record the edge.
     The fallback is polynomial and runs unbudgeted — the engine always
     returns a consistent repair under `Degrade. *)
  let rung ~on_budget ~degraded ~fallbacks ~name ~fallback:(alt_name, alt) f =
    try f () with
    | Repair_error.Error e
      when on_budget = `Degrade && Repair_error.is_degradable e ->
      degraded := true;
      fallbacks :=
        Fmt.str "%s failed (%s) → %s" name (Repair_error.class_name e) alt_name
        :: !fallbacks;
      Log.info (fun m ->
          m "degrading: %s — %a; falling back to %s" name Repair_error.pp e
            alt_name);
      alt ()

  let s_report tbl result ~optimal ~ratio ~method_used =
    {
      result;
      distance = Table.dist_sub result tbl;
      optimal;
      ratio;
      method_used;
      degraded = false;
      fallbacks = [];
    }

  let s_repair_result ?pool ?(strategy = Auto) ?(budget = Budget.unlimited ())
      ?(on_budget = `Degrade) d tbl =
    let degraded = ref false and fallbacks = ref [] in
    let runner = Option.map Pool.runner pool in
    let poly () =
      match Repair_srepair.Opt_s_repair.run ~budget ?runner d tbl with
      | Ok s -> s_report tbl s ~optimal:true ~ratio:1.0 ~method_used:s_poly_name
      | Error stuck ->
        Repair_error.raise_error
          (Intractable
             {
               what = "OptSRepair";
               detail =
                 Fmt.str "no simplification applies to %a" Fd_set.pp stuck;
             })
    in
    let exact () =
      s_report tbl
        (Repair_srepair.S_exact.optimal ~budget d tbl)
        ~optimal:true ~ratio:1.0 ~method_used:s_exact_name
    in
    let approx () =
      let s = Repair_srepair.S_approx.approx2 ?runner d tbl in
      s_report tbl s ~optimal:false ~ratio:2.0 ~method_used:s_approx_name
    in
    let rung name f =
      rung ~on_budget ~degraded ~fallbacks ~name
        ~fallback:(s_approx_name, approx) f
    in
    Repair_error.guard (fun () ->
        let r =
          match strategy with
          | Poly -> rung s_poly_name poly
          | Exact -> rung s_exact_name exact
          | Approximate -> approx ()
          | Auto ->
            if Repair_dichotomy.Simplify.succeeds d then begin
              Log.debug (fun m -> m "s-repair: OSRSucceeds — Algorithm 1");
              rung s_poly_name poly
            end
            else if Table.size tbl <= exact_size_limit then begin
              Log.debug (fun m ->
                  m "s-repair: hard Δ, n=%d small — exact baseline"
                    (Table.size tbl));
              rung s_exact_name exact
            end
            else begin
              Log.debug (fun m ->
                  m "s-repair: hard Δ at scale — 2-approximation");
              approx ()
            end
        in
        { r with degraded = !degraded; fallbacks = List.rev !fallbacks })

  let raise_report = function
    | Ok r -> r
    | Error (Repair_error.Intractable { what; detail }) ->
      (* Compatibility: the historic driver raised [Failure] when a
         polynomial algorithm was requested on the hard side. *)
      failwith (Fmt.str "%s failed: %s" what detail)
    | Error e -> Repair_error.raise_error e

  let s_repair ?pool ?strategy ?budget ?on_budget d tbl =
    raise_report (s_repair_result ?pool ?strategy ?budget ?on_budget d tbl)

  let u_report tbl result ~optimal ~ratio ~method_used =
    {
      result;
      distance = Table.dist_upd result tbl;
      optimal;
      ratio;
      method_used;
      degraded = false;
      fallbacks = [];
    }

  let u_repair_result ?pool ?(strategy = Auto) ?(budget = Budget.unlimited ())
      ?(on_budget = `Degrade) d tbl =
    let degraded = ref false and fallbacks = ref [] in
    let runner = Option.map Pool.runner pool in
    let poly () =
      match Repair_urepair.Opt_u_repair.solve ~budget ?runner d tbl with
      | Ok u -> u_report tbl u ~optimal:true ~ratio:1.0 ~method_used:u_poly_name
      | Error f ->
        Repair_error.raise_error
          (Intractable
             {
               what = "Opt_u_repair";
               detail = Fmt.str "%a" Repair_urepair.Opt_u_repair.pp_failure f;
             })
    in
    let exact () =
      u_report tbl
        (Repair_urepair.U_exact.optimal ~budget d tbl)
        ~optimal:true ~ratio:1.0 ~method_used:u_exact_name
    in
    let approx () =
      let u, ratio = Repair_urepair.U_approx.best d tbl in
      u_report tbl u ~optimal:(ratio = 1.0) ~ratio ~method_used:u_approx_name
    in
    let rung name f =
      rung ~on_budget ~degraded ~fallbacks ~name
        ~fallback:(u_approx_name, approx) f
    in
    Repair_error.guard (fun () ->
        let r =
          match strategy with
          | Poly -> rung u_poly_name poly
          | Exact -> rung u_exact_name exact
          | Approximate -> approx ()
          | Auto ->
            if Repair_urepair.Opt_u_repair.tractable d then begin
              Log.debug (fun m -> m "u-repair: Section-4 tractable case");
              rung u_poly_name poly
            end
            else if
              Table.size tbl * Schema.arity (Table.schema tbl) <= 18
            then begin
              Log.debug (fun m ->
                  m "u-repair: exhaustive search on tiny instance");
              rung u_exact_name exact
            end
            else begin
              Log.debug (fun m ->
                  m "u-repair: certified combined approximation");
              approx ()
            end
        in
        { r with degraded = !degraded; fallbacks = List.rev !fallbacks })

  let u_repair ?pool ?strategy ?budget ?on_budget d tbl =
    raise_report (u_repair_result ?pool ?strategy ?budget ?on_budget d tbl)

  let s_repair_database ?strategy ?budget ?on_budget constraints db =
    let total = ref 0.0 in
    let repaired =
      Database.map db (fun name tbl ->
          match List.assoc_opt name constraints with
          | None -> tbl
          | Some d ->
            let r = s_repair ?strategy ?budget ?on_budget d tbl in
            total := !total +. r.distance;
            r.result)
    in
    (repaired, !total)

  let describe d =
    let module Simplify = Repair_dichotomy.Simplify in
    let module Classify = Repair_dichotomy.Classify in
    let buf = Buffer.create 256 in
    let ppf = Fmt.with_buffer buf in
    Fmt.pf ppf "Δ = %a@." Fd_set.pp d;
    (match Classify.classify d with
    | `Tractable trace ->
      Fmt.pf ppf
        "Optimal S-repair: polynomial time (OSRSucceeds holds).@.%a@."
        Simplify.pp_trace (d, trace)
    | `Hard (stuck, trace, cert) ->
      Fmt.pf ppf
        "Optimal S-repair: APX-complete (OSRSucceeds fails).@.%a@.Stuck \
         set: %a@.Certificate: %a@."
        Simplify.pp_trace (d, trace) Fd_set.pp stuck Classify.pp_certificate
        cert);
    (match Repair_urepair.Opt_u_repair.diagnose d with
    | None ->
      Fmt.pf ppf "Optimal U-repair: polynomial time (Section 4 cases).@."
    | Some f ->
      Fmt.pf ppf "Optimal U-repair: not known tractable — %a@."
        Repair_urepair.Opt_u_repair.pp_failure f);
    let d' = Fd_set.normalize d in
    if not (Fd_set.is_empty d') then begin
      Fmt.pf ppf
        "U-repair approximation ratios: ours (Thm 4.12, per-component) = \
         %g; Kolahi–Lakshmanan (Thm 4.13) = %d (MFS=%d, MCI=%d).@."
        (Repair_urepair.U_approx.certified_ratio d)
        (Lhs_analysis.kl_ratio d') (Lhs_analysis.mfs d')
        (Lhs_analysis.mci d')
    end;
    Fmt.flush ppf ();
    Buffer.contents buf
end

module Batch = struct
  module Manifest = Repair_batch.Manifest
  module Journal = Repair_batch.Journal
  module Runner = Repair_batch.Runner
  module Budget = Repair_runtime.Budget
  module Repair_error = Repair_runtime.Repair_error
  open Repair_relational

  let is_jsonl path = Filename.check_suffix path ".jsonl"

  let load_table path =
    if is_jsonl path then Jsonl_io.load ~name:"T" path
    else Csv_io.load ~name:"T" path

  let save_table tbl path =
    if is_jsonl path then Jsonl_io.save tbl path else Csv_io.save tbl path

  (* The Driver-backed executor the CLI uses. Raises Repair_error.Error
     for everything the runner should isolate: a bad FD string or input
     file makes the job poison, a per-job budget under `Fail surfaces as
     a transient failure the runner may retry. *)
  let exec_job (job : Manifest.job) : Runner.outcome =
    let d =
      try Repair_fd.Fd_set.parse job.fds
      with Failure m ->
        Repair_error.raise_error
          (Parse
             { source = Fmt.str "<fds:%s>" job.id; line = None; detail = m })
    in
    let tbl = load_table job.input in
    let strategy =
      match job.strategy with
      | Manifest.Auto -> Driver.Auto
      | Manifest.Poly -> Driver.Poly
      | Manifest.Exact -> Driver.Exact
      | Manifest.Approximate -> Driver.Approximate
    in
    let budget =
      match (job.timeout_s, job.max_steps) with
      | None, None -> None
      | timeout_s, max_steps -> Some (Budget.create ?timeout_s ?max_steps ())
    in
    let result =
      match job.kind with
      | Manifest.S_repair ->
        Driver.s_repair_result ~strategy ?budget ~on_budget:job.on_budget d
          tbl
      | Manifest.U_repair ->
        Driver.u_repair_result ~strategy ?budget ~on_budget:job.on_budget d
          tbl
    in
    match result with
    | Error e -> Repair_error.raise_error e
    | Ok r ->
      Option.iter (save_table r.result) job.output;
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
        let d =
          try Fd_set.parse fds_text
          with Failure m ->
            Repair_error.raise_error
              (Parse { source = "<fds>"; line = None; detail = m })
        in
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

  let strategy_of = function
    | Protocol.Auto -> Driver.Auto
    | Protocol.Poly -> Driver.Poly
    | Protocol.Exact -> Driver.Exact
    | Protocol.Approximate -> Driver.Approximate

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
    [ ("distance", Json.Float r.Repair_stream.Session.distance);
      ("method", Json.String r.Repair_stream.Session.method_used);
      ("optimal", Json.Bool r.Repair_stream.Session.optimal);
      ("ratio", Json.Float r.Repair_stream.Session.ratio);
      ("degraded", Json.Bool false);
      ("fallbacks", Json.List []);
      ("table", Json.String (render_table req r.Repair_stream.Session.result));
      ("applied", Json.Int !applied);
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
      let strategy =
        if degraded then Driver.Approximate else strategy_of req.strategy
      in
      let solve =
        match req.Protocol.op with
        | Protocol.S_repair -> Driver.s_repair_result
        | _ -> Driver.u_repair_result
      in
      (match solve ~strategy ~budget ~on_budget:`Degrade warm.fds tbl with
      | Error e -> Repair_error.raise_error e
      | Ok r ->
        [ ("distance", Json.Float r.Driver.distance);
          ("method", Json.String r.Driver.method_used);
          ("optimal", Json.Bool r.Driver.optimal);
          ("ratio", Json.Float r.Driver.ratio);
          ("degraded", Json.Bool r.Driver.degraded);
          ( "fallbacks",
            Json.List (List.map (fun f -> Json.String f) r.Driver.fallbacks) );
          ("table", Json.String (render_table req r.Driver.result)) ])
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

  let run ?config ?cache_capacity ?metrics_out ?slow_log ?trace_out
      ?(domains = 1) listen =
    let cache = make_cache ?capacity:cache_capacity () in
    let sessions = make_sessions () in
    let mutex = Mutex.create () in
    let serve ?pool () =
      Server.run ?config ?metrics_out ?slow_log ?trace_out ?pool
        ~on_invalidate:(fun () -> Cache.clear cache + Cache.clear sessions)
        ~exec:(fun ~conn ~degraded ~budget req ->
          exec ~cache ~sessions ~mutex ~conn ~degraded ~budget req)
        listen
    in
    if domains <= 1 then serve ()
    else
      Repair_par.Pool.with_pool ~domains (fun pool -> serve ~pool ())
end
