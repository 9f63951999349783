module Budget = Repair_runtime.Budget
module Repair_error = Repair_runtime.Repair_error
module Pool = Repair_par.Pool
module Metrics = Repair_obs.Metrics
module Histogram = Repair_obs.Histogram
module Json = Repair_obs.Json

type outcome = {
  status : [ `Ok | `Degraded ];
  distance : float;
  method_used : string;
}

type state =
  | Committed of outcome
  | Quarantined of {
      error : string;
      detail : string;
      counters : (string * int) list;
    }

type job_result = {
  job : Manifest.job;
  attempts : int;
  replayed : bool;
  wall_ms : float;
  state : state;
}

type summary = {
  total : int;
  ok : int;
  degraded : int;
  quarantined : int;
  retried : int;
  replayed : int;
  results : job_result list;
  latency : Histogram.t;
  latency_by_method : (string * Histogram.t) list;
}

let exit_some_quarantined = 9

(* Transient failures are worth retrying: a timeout may pass on a quieter
   machine, an injected fault is one-shot by construction. Everything
   else (bad input, wrong schema, intractability, size gates, unexpected
   exceptions) is deterministic — retrying cannot help. *)
let classify = function
  | Repair_error.Error e ->
    let transient =
      match e with
      | Repair_error.Budget_exhausted _ | Repair_error.Fault_injected _ ->
        true
      | _ -> false
    in
    (Repair_error.class_name e, Repair_error.to_string e, transient)
  | exn -> ("internal", Printexc.to_string exn, false)

(* Counter deltas since [before]; counters are monotone, so a plain
   subtraction per name is the per-job contribution. *)
let counters_delta ~before after =
  List.filter_map
    (fun (name, v) ->
      let prior =
        match List.assoc_opt name before with Some p -> p | None -> 0
      in
      if v > prior then Some (name, v - prior) else None)
    after

let run ?pool ?(retries = 0) ?(backoff_ms = 0) ?(resume = false) ~exec
    ~journal manifest =
  if retries < 0 then invalid_arg "Runner.run: retries must be >= 0";
  if backoff_ms < 0 then invalid_arg "Runner.run: backoff_ms must be >= 0";
  let jobs = manifest.Manifest.jobs in
  if
    (not resume)
    && Sys.file_exists journal
    && (Unix.stat journal).st_size > 0
  then
    Repair_error.raise_error
      (Io
         {
           file = journal;
           detail = "journal exists; pass --resume to continue or delete it";
         });
  let recovery =
    if resume then Journal.recover journal
    else { Journal.entries = []; committed = []; truncated = false }
  in
  (match recovery.entries with
  | Journal.Begin { jobs = n } :: _ when n <> List.length jobs ->
    Repair_error.raise_error
      (Schema_mismatch
         {
           source = journal;
           detail =
             Fmt.str "journal began with %d jobs; manifest has %d" n
               (List.length jobs);
         })
  | _ -> ());
  let w = Journal.open_append journal in
  Fun.protect ~finally:(fun () -> Journal.close w)
  @@ fun () ->
  Metrics.with_span "batch"
  @@ fun () ->
  (* A fresh unlimited budget: the runner's own checkpoints, phase
     "batch". Every tick sits just after a durable journal mutation, so a
     phase-"batch" fault simulates a crash between any two writes. *)
  let budget = Budget.unlimited () in
  let tick () = Budget.tick ~phase:"batch" budget in
  if recovery.entries = [] then
    Journal.append w (Journal.Begin { jobs = List.length jobs });
  tick ();
  (* Speculative parallel first attempts: with a pool, every
     not-yet-committed job's attempt 1 runs up front as a pool task —
     outcome and metrics captured per job, nothing merged, nothing
     written. The journal writer below then walks the manifest in order
     exactly as the sequential runner does, consuming each job's
     speculative result where attempt 1 would have run and merging its
     metrics capture at that same point, so the record sequence, the
     phase-"batch" checkpoint arithmetic, and every Commit counter delta
     are byte-identical to the sequential run. Retries (attempt >= 2)
     always run inline. The WAL caveat: speculative work predates its
     Start record, so a crash can discard compute the journal never saw
     — harmless, since resume re-executes exactly the uncommitted
     jobs. *)
  let speculative =
    match pool with
    | None -> fun _ -> None
    | Some pool ->
      let todo =
        List.filter
          (fun (j : Manifest.job) ->
            not (List.mem_assoc j.id recovery.committed))
          jobs
      in
      if List.length todo <= 1 then fun _ -> None
      else begin
        let task (job : Manifest.job) () =
          let ta = Unix.gettimeofday () in
          let outcome = Metrics.with_span job.id (fun () -> exec job) in
          (outcome, (Unix.gettimeofday () -. ta) *. 1000.0)
        in
        let results =
          Pool.run_captured pool (Array.of_list (List.map task todo))
        in
        let tbl = Hashtbl.create (List.length todo) in
        List.iteri
          (fun i (j : Manifest.job) -> Hashtbl.replace tbl j.id results.(i))
          todo;
        fun id -> Hashtbl.find_opt tbl id
      end
  in
  let retried = ref 0 in
  let run_job (job : Manifest.job) =
    tick ();
    (* checkpoint: about to start this job; nothing durable yet *)
    let t0 = Unix.gettimeofday () in
    let before = Metrics.counters () in
    let speculative = speculative job.id in
    let rec attempt k =
      Journal.append w (Journal.Start { job = job.id; attempt = k });
      tick ();
      (* checkpoint: the Start record is durable, the job is in flight *)
      let ta = Unix.gettimeofday () in
      let first_attempt () =
        match speculative with
        | Some (result, cap) when k = 1 ->
          (* Merge where the inline attempt would have recorded. *)
          Metrics.merge cap;
          (match result with
          | Ok (outcome, wall_ms) -> `Done (outcome, wall_ms)
          | Error exn -> `Raised exn)
        | _ -> (
          match Metrics.with_span job.id (fun () -> exec job) with
          | outcome ->
            `Done (outcome, (Unix.gettimeofday () -. ta) *. 1000.0)
          | exception exn -> `Raised exn)
      in
      match first_attempt () with
      | `Done (outcome, wall_ms) ->
        Journal.append w
          (Journal.Commit
             {
               job = job.id;
               attempt = k;
               status = outcome.status;
               method_used = outcome.method_used;
               distance = outcome.distance;
               wall_ms;
               counters = counters_delta ~before (Metrics.counters ());
             });
        tick ();
        (* checkpoint: the job is committed *)
        (k, Some wall_ms, Committed outcome)
      | `Raised exn ->
        let error, detail, transient = classify exn in
        if transient && k <= retries then begin
          let backoff = backoff_ms * (1 lsl (k - 1)) in
          Journal.append w
            (Journal.Retry
               { job = job.id; attempt = k; error; backoff_ms = backoff });
          incr retried;
          tick ();
          (* checkpoint: the failed attempt is on record *)
          if backoff > 0 then Unix.sleepf (float_of_int backoff /. 1000.0);
          attempt (k + 1)
        end
        else begin
          let counters = counters_delta ~before (Metrics.counters ()) in
          Journal.append w
            (Journal.Quarantine
               { job = job.id; attempts = k; error; detail; counters });
          tick ();
          (* checkpoint: the poison job is quarantined *)
          (k, None, Quarantined { error; detail; counters })
        end
    in
    let attempts, commit_wall_ms, state = attempt 1 in
    {
      job;
      attempts;
      replayed = false;
      (* Committed jobs report the committing attempt (what the journal
         records and the latency histograms aggregate); quarantined jobs
         report the whole losing fight, backoff included. *)
      wall_ms =
        (match commit_wall_ms with
        | Some ms -> ms
        | None -> (Unix.gettimeofday () -. t0) *. 1000.0);
      state;
    }
  in
  let results =
    List.map
      (fun (job : Manifest.job) ->
        match List.assoc_opt job.id recovery.committed with
        | Some (Journal.Commit { status; method_used; distance; wall_ms; _ })
          ->
          {
            job;
            attempts = 0;
            replayed = true;
            (* The journal remembers how long the committing attempt took,
               so a resumed run reports the same latency distribution as
               the uninterrupted one would have. *)
            wall_ms;
            state = Committed { status; distance; method_used };
          }
        | Some (Journal.Quarantine { error; detail; counters; _ }) ->
          {
            job;
            attempts = 0;
            replayed = true;
            wall_ms = 0.0;
            state = Quarantined { error; detail; counters };
          }
        | Some (Journal.Begin _ | Journal.Start _ | Journal.Retry _) ->
          assert false (* recovery.committed holds terminal records only *)
        | None -> run_job job)
      jobs
  in
  let count p = List.length (List.filter p results) in
  let latency = Histogram.create () in
  let by_method : (string, Histogram.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r.state with
      | Committed { method_used; _ } ->
        let s = r.wall_ms /. 1000.0 in
        Histogram.observe latency s;
        let h =
          match Hashtbl.find_opt by_method method_used with
          | Some h -> h
          | None ->
            let h = Histogram.create () in
            Hashtbl.add by_method method_used h;
            h
        in
        Histogram.observe h s
      | Quarantined _ -> ())
    results;
  let latency_by_method =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) by_method []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    total = List.length results;
    ok =
      count (fun r ->
          match r.state with Committed { status = `Ok; _ } -> true | _ -> false);
    degraded =
      count (fun r ->
          match r.state with
          | Committed { status = `Degraded; _ } -> true
          | _ -> false);
    quarantined =
      count (fun r ->
          match r.state with Quarantined _ -> true | _ -> false);
    retried = !retried;
    replayed = count (fun r -> r.replayed);
    results;
    latency;
    latency_by_method;
  }

let job_json (r : job_result) =
  let base =
    [ ("id", Json.String r.job.Manifest.id);
      ( "status",
        Json.String
          (match r.state with
          | Committed { status = `Ok; _ } -> "ok"
          | Committed { status = `Degraded; _ } -> "degraded"
          | Quarantined _ -> "quarantined") );
      ("attempts", Json.Int r.attempts);
      ("replayed", Json.Bool r.replayed);
      ("wall_ms", Json.Float r.wall_ms) ]
  in
  let tail =
    match r.state with
    | Committed { distance; method_used; _ } ->
      [ ("distance", Json.Float distance);
        ("method", Json.String method_used) ]
    | Quarantined { error; _ } -> [ ("error", Json.String error) ]
  in
  Json.Obj (base @ tail)

let poison_json (r : job_result) =
  match r.state with
  | Quarantined { error; detail; counters } ->
    Some
      (Json.Obj
         [ ("id", Json.String r.job.Manifest.id);
           ("error", Json.String error);
           ("detail", Json.String detail);
           ( "counters",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) ) ])
  | Committed _ -> None

let summary_json ?wall_ms s =
  Json.Obj
    ([ ("total", Json.Int s.total);
       ("ok", Json.Int s.ok);
       ("degraded", Json.Int s.degraded);
       ("quarantined", Json.Int s.quarantined);
       ("retried", Json.Int s.retried);
       ("replayed", Json.Int s.replayed) ]
    @ (match wall_ms with
      | Some ms -> [ ("wall_ms", Json.Float ms) ]
      | None -> [])
    @ [ ("latency", Histogram.summary_json s.latency);
        ( "latency_by_method",
          Json.Obj
            (List.map
               (fun (m, h) -> (m, Histogram.summary_json h))
               s.latency_by_method) );
        ("jobs", Json.List (List.map job_json s.results));
        ("poison", Json.List (List.filter_map poison_json s.results)) ])
