module Json = Repair_obs.Json
module Metrics = Repair_obs.Metrics
module Trace = Repair_obs.Trace
module Timeseries = Repair_obs.Timeseries
module Expo = Repair_obs.Expo
module E = Repair_runtime.Repair_error

type config = {
  queue_capacity : int;
  degrade_watermark : int;
  quota : int option;
  default_timeout_s : float option;
  max_steps_cap : int option;
  drain_deadline_s : float;
  max_request_bytes : int;
  read_deadline_s : float option;
  write_deadline_s : float option;
  slow_ms : float option;
  stats_interval_s : float;
  stats_windows : int;
}

let default_config =
  {
    queue_capacity = 64;
    degrade_watermark = 32;
    quota = None;
    default_timeout_s = Some 10.0;
    max_steps_cap = None;
    drain_deadline_s = 5.0;
    max_request_bytes = 8 * 1024 * 1024;
    read_deadline_s = Some 30.0;
    write_deadline_s = Some 30.0;
    slow_ms = None;
    stats_interval_s = 1.0;
    stats_windows = 60;
  }

type admission = Normal | Downgraded

type pending = {
  conn : int;
  request : Protocol.request;
  admission : admission;
  req_id : string;
  enqueued_at : float;
}

type counters = {
  received : int;
  admitted : int;
  completed : int;
  degraded : int;
  shed : int;
  quarantined : int;
  cancelled : int;
  protocol_errors : int;
  queue_depth_max : int;
}

type state = {
  mutable received : int;
  mutable admitted : int;
  mutable completed : int;
  mutable degraded : int;
  mutable shed : int;
  mutable quarantined : int;
  mutable cancelled : int;
  mutable protocol_errors : int;
  mutable queue_depth_max : int;
  mutable in_flight : int;
}

type t = {
  config : config;
  queue : pending Queue.t;
  c : state;
  mutable mode : [ `Accepting | `Draining ];
  on_invalidate : unit -> int;
  on_slow : Json.t -> unit;
  gauges : unit -> (string * float) list;  (** the caller's gauges *)
  ts : Timeseries.t;
}

let create ?(on_invalidate = fun () -> 0) ?(on_slow = fun _ -> ()) ?clock
    ?(gauges = fun () -> []) config =
  if config.queue_capacity < 1 then
    invalid_arg "Engine.create: queue_capacity must be >= 1";
  if
    config.degrade_watermark < 1
    || config.degrade_watermark > config.queue_capacity
  then
    invalid_arg
      "Engine.create: degrade_watermark must be in 1..queue_capacity";
  (match config.quota with
  | Some q when q < 1 -> invalid_arg "Engine.create: quota must be >= 1"
  | _ -> ());
  if config.drain_deadline_s <= 0.0 then
    invalid_arg "Engine.create: drain_deadline_s must be positive";
  if config.max_request_bytes < 2 then
    invalid_arg "Engine.create: max_request_bytes must be >= 2";
  (match config.read_deadline_s with
  | Some d when d <= 0.0 ->
    invalid_arg "Engine.create: read_deadline_s must be positive"
  | _ -> ());
  (match config.write_deadline_s with
  | Some d when d <= 0.0 ->
    invalid_arg "Engine.create: write_deadline_s must be positive"
  | _ -> ());
  (match config.slow_ms with
  | Some ms when ms < 0.0 ->
    invalid_arg "Engine.create: slow_ms must be non-negative"
  | _ -> ());
  if config.stats_interval_s <= 0.0 then
    invalid_arg "Engine.create: stats_interval_s must be positive";
  if config.stats_windows < 1 then
    invalid_arg "Engine.create: stats_windows must be >= 1";
  let queue = Queue.create () in
  let c =
    {
      received = 0;
      admitted = 0;
      completed = 0;
      degraded = 0;
      shed = 0;
      quarantined = 0;
      cancelled = 0;
      protocol_errors = 0;
      queue_depth_max = 0;
      in_flight = 0;
    }
  in
  let extra = gauges in
  let gauges () =
    [ ("serve.in_flight", float_of_int c.in_flight);
      ("serve.queue_depth", float_of_int (Queue.length queue)) ]
    @ extra ()
  in
  {
    config;
    queue;
    c;
    mode = `Accepting;
    on_invalidate;
    on_slow;
    gauges = extra;
    ts =
      Timeseries.of_metrics ~gauges ~windows:config.stats_windows
        ~interval_s:config.stats_interval_s ?clock ();
  }

let config t = t.config
let mode t = t.mode
let drain t = t.mode <- `Draining
let queue_depth t = Queue.length t.queue
let in_flight t = t.c.in_flight
let timeseries t = t.ts

(* One window boundary check; the server poll loop calls this every
   iteration, so window closes track the configured interval to within
   one poll timeout. *)
let tick_stats t = Timeseries.tick t.ts

let gauges_now t =
  [ ("serve.in_flight", float_of_int t.c.in_flight);
    ("serve.queue_depth", float_of_int (Queue.length t.queue)) ]
  @ t.gauges ()

let exposition t =
  Expo.render ~counters:(Metrics.counters ()) ~gauges:(gauges_now t)
    ~histograms:(Metrics.histograms ()) ()

let accounting_json t =
  Json.Obj
    [ ("received", Json.Int t.c.received);
      ("admitted", Json.Int t.c.admitted);
      ("completed", Json.Int t.c.completed);
      ("degraded", Json.Int t.c.degraded);
      ("shed", Json.Int t.c.shed);
      ("quarantined", Json.Int t.c.quarantined);
      ("cancelled", Json.Int t.c.cancelled);
      ("protocol_errors", Json.Int t.c.protocol_errors);
      ("queue_depth", Json.Int (Queue.length t.queue));
      ("queue_depth_max", Json.Int t.c.queue_depth_max);
      ( "mode",
        Json.String
          (match t.mode with
          | `Accepting -> "accepting"
          | `Draining -> "draining") ) ]

let snapshot_json t =
  match Metrics.snapshot () with
  | Json.Obj fields -> Json.Obj (("serve", accounting_json t) :: fields)
  | other -> Json.Obj [ ("serve", accounting_json t); ("metrics", other) ]

(* The [stats] payload: the windowed series, the cumulative counter
   totals (so a scraper can check that the windows' deltas sum to the
   same story the [metrics] op tells), the serve accounting section, and
   the text exposition ready to be written to a scrape endpoint. *)
let stats_fields t =
  [ ("stats", Timeseries.to_json t.ts);
    ( "totals",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Metrics.counters ()))
    );
    ("serve", accounting_json t);
    ("exposition", Json.String (exposition t)) ]

let balanced t =
  t.c.admitted
  = t.c.completed + t.c.quarantined + t.c.cancelled + Queue.length t.queue

let counters t : counters =
  {
    received = t.c.received;
    admitted = t.c.admitted;
    completed = t.c.completed;
    degraded = t.c.degraded;
    shed = t.c.shed;
    quarantined = t.c.quarantined;
    cancelled = t.c.cancelled;
    protocol_errors = t.c.protocol_errors;
    queue_depth_max = t.c.queue_depth_max;
  }

let shed t ~id ~error_class ~detail =
  t.c.shed <- t.c.shed + 1;
  Metrics.incr "serve.shed";
  `Reply (Protocol.error_line ~id ~error_class ~detail)

let reject_oversized t =
  t.c.received <- t.c.received + 1;
  t.c.protocol_errors <- t.c.protocol_errors + 1;
  Metrics.incr "serve.protocol-errors";
  Protocol.error_line ~id:Json.Null ~error_class:Protocol.err_oversized
    ~detail:
      (Printf.sprintf "request line exceeds %d bytes"
         t.config.max_request_bytes)

let handle_line t ~conn ~quota_used line =
  t.c.received <- t.c.received + 1;
  match Protocol.parse line with
  | Error reject ->
    t.c.protocol_errors <- t.c.protocol_errors + 1;
    Metrics.incr "serve.protocol-errors";
    `Reply (Protocol.reject_line reject)
  | Ok req -> (
    let id = req.Protocol.id in
    match req.Protocol.op with
    | Protocol.Ping -> `Reply (Protocol.ok_line ~id [ ("pong", Json.Bool true) ])
    | Protocol.Metrics ->
      `Reply (Protocol.ok_line ~id [ ("snapshot", snapshot_json t) ])
    | Protocol.Stats -> `Reply (Protocol.ok_line ~id (stats_fields t))
    | Protocol.Invalidate_cache ->
      let dropped = t.on_invalidate () in
      `Reply
        (Protocol.ok_line ~id
           [ ("invalidated", Json.Bool true); ("entries", Json.Int dropped) ])
    | Protocol.Drain ->
      drain t;
      `Drain (Protocol.ok_line ~id [ ("draining", Json.Bool true) ])
    | Protocol.S_repair | Protocol.U_repair | Protocol.Classify
    | Protocol.Stream ->
      if t.mode = `Draining then
        shed t ~id ~error_class:Protocol.err_draining
          ~detail:"server is draining; no new work is admitted"
      else if
        match t.config.quota with
        | Some q -> quota_used >= q
        | None -> false
      then
        shed t ~id ~error_class:Protocol.err_quota
          ~detail:
            (Printf.sprintf "connection quota of %d repair requests spent"
               (Option.get t.config.quota))
      else begin
        let depth = Queue.length t.queue in
        if depth >= t.config.queue_capacity then
          shed t ~id ~error_class:Protocol.err_overloaded
            ~detail:
              (Printf.sprintf "queue depth %d at capacity %d" depth
                 t.config.queue_capacity)
        else begin
          let admission =
            if depth >= t.config.degrade_watermark then Downgraded
            else Normal
          in
          t.c.admitted <- t.c.admitted + 1;
          Metrics.incr "serve.admitted";
          (* The deterministic request id: connection cookie × the
             engine's admission counter. Unique per engine lifetime,
             independent of scheduling, and cheap to grep for across the
             slow log, the trace ([args.req]), and client reports. *)
          let req_id = Printf.sprintf "c%d.%d" conn t.c.admitted in
          Queue.push
            { conn; request = req; admission; req_id;
              enqueued_at = Unix.gettimeofday () }
            t.queue;
          t.c.queue_depth_max <-
            max t.c.queue_depth_max (Queue.length t.queue);
          `Enqueued
        end
      end)

type exec = conn:int -> degraded:bool -> Protocol.request -> (string * Json.t) list

let take t =
  match Queue.take_opt t.queue with
  | Some p ->
    t.c.in_flight <- t.c.in_flight + 1;
    Some p
  | None -> None

(* The execute step is split in two so a domain pool can run the solver
   halves of several queued requests concurrently: [run_exec] is the
   pure half — solver call, isolation boundary, wall-clock — touching no
   engine state, so it is safe on a worker domain; [settle] is the
   mutating half — counters, metrics, the reply line — and always runs
   on the engine's owning domain, in take-order, preserving the
   accounting identity and the reply order of the sequential server.

   [run_exec] records the work under [Metrics.capture] with the trace
   request context set to [p.req_id]: on a worker domain the capture is
   the isolation the determinism contract needs anyway, and on the
   owner it makes the sequential path shape-identical — either way
   [settle] merges the capture, so the registry totals equal what
   inline recording would have produced, and the capture itself carries
   the request's own counters and span breakdown for the slow log. *)

type executed = {
  result : ((string * Json.t) list, string * string) result;
  wall_s : float;
  started_at : float;
  captured : Metrics.captured;
}

let run_exec ~exec p =
  let downgraded = p.admission = Downgraded in
  let t0 = Unix.gettimeofday () in
  let res, captured =
    Metrics.capture (fun () ->
        Trace.with_request p.req_id (fun () ->
            Metrics.with_span "serve.request" (fun () ->
                (* The per-request isolation boundary: classified errors
                   keep their class, everything else — including a stack
                   overflow from an adversarial instance — becomes an
                   [internal] reply. Nothing a request does can unwind
                   past this point. *)
                match exec ~conn:p.conn ~degraded:downgraded p.request with
                | fields -> Ok fields
                | exception E.Error e -> Error (E.class_name e, E.to_string e)
                | exception Stack_overflow ->
                  Error (Protocol.err_internal, "stack overflow")
                | exception exn ->
                  Error (Protocol.err_internal, Printexc.to_string exn))))
  in
  let result =
    match res with
    | Ok r -> r
    | Error exn ->
      (* Only reachable if the instrumentation wrappers themselves raise;
         the solver boundary above never lets an exception out. *)
      Error (Protocol.err_internal, Printexc.to_string exn)
  in
  { result; wall_s = Unix.gettimeofday () -. t0; started_at = t0; captured }

let rec span_json (s : Metrics.span) =
  Json.Obj
    [ ("name", Json.String s.name);
      ("count", Json.Int s.count);
      ("total_ms", Json.Float (s.total_s *. 1000.0));
      ("children", Json.List (List.map span_json s.children)) ]

let slow_record t p executed ~queue_wait_s ~outcome ~degraded =
  let captured_counter name =
    Option.value ~default:0
      (List.assoc_opt name (Metrics.captured_counters executed.captured))
  in
  Json.Obj
    [ ("slow", Json.Bool true);
      ("req", Json.String p.req_id);
      ("id", p.request.Protocol.id);
      ("op", Json.String (Protocol.op_name p.request.Protocol.op));
      ("conn", Json.Int p.conn);
      ("wall_ms", Json.Float (executed.wall_s *. 1000.0));
      ("queue_ms", Json.Float (queue_wait_s *. 1000.0));
      ( "admission",
        Json.String
          (match p.admission with
          | Normal -> "normal"
          | Downgraded -> "downgraded") );
      ("outcome", Json.String outcome);
      ("degraded", Json.Bool degraded);
      ( "cache",
        Json.Obj
          [ ("hit", Json.Int (captured_counter "serve.fd-cache.hit"));
            ("miss", Json.Int (captured_counter "serve.fd-cache.miss")) ] );
      ( "spans",
        Json.List
          (List.map span_json (Metrics.captured_spans executed.captured)) );
      ("queue_depth", Json.Int (Queue.length t.queue)) ]

let settle t p executed =
  let id = p.request.Protocol.id in
  let downgraded = p.admission = Downgraded in
  Metrics.merge executed.captured;
  t.c.in_flight <- t.c.in_flight - 1;
  let queue_wait_s = Float.max 0.0 (executed.started_at -. p.enqueued_at) in
  Metrics.observe "serve.queue-wait" queue_wait_s;
  Metrics.observe
    ("serve." ^ Protocol.op_name p.request.Protocol.op)
    executed.wall_s;
  Metrics.incr "serve.requests";
  let reply, outcome, degraded =
    match executed.result with
    | Ok fields ->
      t.c.completed <- t.c.completed + 1;
      let solver_degraded =
        match List.assoc_opt "degraded" fields with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      let degraded = downgraded || solver_degraded in
      if degraded then begin
        t.c.degraded <- t.c.degraded + 1;
        Metrics.incr "serve.degraded"
      end;
      let fields =
        List.filter (fun (k, _) -> k <> "degraded") fields
        @ [ ("degraded", Json.Bool degraded) ]
        @ if downgraded then [ ("downgraded", Json.String "overload") ] else []
      in
      (Protocol.ok_line ~id fields, "ok", degraded)
    | Error (error_class, detail) ->
      t.c.quarantined <- t.c.quarantined + 1;
      Metrics.incr "serve.quarantined";
      (Protocol.error_line ~id ~error_class ~detail, error_class, false)
  in
  (match t.config.slow_ms with
  | Some threshold_ms when executed.wall_s *. 1000.0 >= threshold_ms ->
    Metrics.incr "serve.slow";
    t.on_slow (slow_record t p executed ~queue_wait_s ~outcome ~degraded)
  | _ -> ());
  reply

let execute t ~exec p = settle t p (run_exec ~exec p)

let cancel_remaining t =
  let cancelled = ref [] in
  Queue.iter
    (fun p ->
      t.c.cancelled <- t.c.cancelled + 1;
      Metrics.incr "serve.cancelled";
      cancelled :=
        ( p.conn,
          Protocol.error_line ~id:p.request.Protocol.id
            ~error_class:Protocol.err_cancelled
            ~detail:"drain deadline expired before the request ran" )
        :: !cancelled)
    t.queue;
  Queue.clear t.queue;
  List.rev !cancelled
