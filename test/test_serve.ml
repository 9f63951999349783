(* The serving daemon: protocol totality, the warm LRU cache, watermark
   admission control (downgrade, then shed), per-request isolation,
   graceful drain with cancellation, the accounting identity — and a
   forked end-to-end drill over a real Unix socket. *)

module Protocol = Repair_serve.Protocol
module Cache = Repair_serve.Cache
module Engine = Repair_serve.Engine
module Server = Repair_serve.Server
module Json = Repair_obs.Json
module E = Repair_runtime.Repair_error
module R = Repair_core.Repair

let reply_json line =
  match Json.of_string line with
  | Ok j -> j
  | Error m -> Alcotest.failf "reply is not JSON (%s): %S" m line

let reply_ok line =
  match Json.member "ok" (reply_json line) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply lacks ok: %S" line

let reply_class line =
  match
    Option.bind (Json.member "error" (reply_json line)) (Json.member "class")
  with
  | Some (Json.String c) -> c
  | _ -> Alcotest.failf "reply lacks error.class: %S" line

let reply_bool key line =
  match Json.member key (reply_json line) with
  | Some (Json.Bool b) -> b
  | _ -> false

(* ---------- protocol ---------- *)

let test_protocol_roundtrip () =
  let line =
    Protocol.request_line ~id:(Json.String "r1") ~op:Protocol.S_repair
      ~fds:"A -> B" ~table:"A,B\n1,2\n" ~format:Protocol.Csv
      ~strategy:R.Driver.Exact ~timeout_s:1.5 ~max_steps:42 ()
  in
  match Protocol.parse (String.trim line) with
  | Error r -> Alcotest.failf "round-trip rejected: %s" r.Protocol.detail
  | Ok req ->
    Alcotest.(check string) "op" "s-repair" (Protocol.op_name req.Protocol.op);
    Alcotest.(check string) "fds" "A -> B" req.Protocol.fds;
    Alcotest.(check string) "table" "A,B\n1,2\n" req.Protocol.table;
    Alcotest.(check bool) "strategy" true (req.Protocol.strategy = R.Driver.Exact);
    Alcotest.(check (option int)) "max_steps" (Some 42) req.Protocol.max_steps;
    (match req.Protocol.timeout_s with
    | Some t -> Alcotest.(check (float 1e-9)) "timeout" 1.5 t
    | None -> Alcotest.fail "timeout lost")

let test_protocol_total () =
  let reject line =
    match Protocol.parse line with
    | Error r ->
      Alcotest.(check string) "class" Protocol.err_protocol r.Protocol.error_class
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  reject "";
  reject "not json";
  reject "[1,2]";
  reject "\"str\"";
  reject "{}";
  reject {|{"op": 42}|};
  reject {|{"op": "warp"}|};
  reject {|{"op": "s-repair"}|};
  reject {|{"op": "s-repair", "fds": "A -> B"}|};
  reject {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "format": "xml"}|};
  reject {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "timeout_s": -1}|};
  (* id is recovered whenever the line parsed as an object *)
  match Protocol.parse {|{"id": "x7", "op": "warp"}|} with
  | Error r -> Alcotest.(check bool) "id kept" true (r.Protocol.id = Json.String "x7")
  | Ok _ -> Alcotest.fail "accepted unknown op"

let test_protocol_control_ops () =
  List.iter
    (fun (name, control) ->
      match
        Protocol.parse (Printf.sprintf {|{"op": %S, "fds": "A -> B"}|} name)
      with
      | Ok req ->
        Alcotest.(check bool) name control (Protocol.is_control req.Protocol.op)
      | Error r -> Alcotest.failf "%s rejected: %s" name r.Protocol.detail)
    [ ("ping", true); ("metrics", true); ("invalidate-cache", true);
      ("drain", true); ("classify", false) ]

(* ---------- cache ---------- *)

let test_cache_lru () =
  let c = Cache.create ~name:"t" ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.add c "c" 3;
  (* "b" was least recently used *)
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size;
  Alcotest.(check int) "cleared" 2 (Cache.clear c);
  Alcotest.(check int) "empty" 0 (Cache.length c)

let test_cache_failed_produce_not_cached () =
  let c = Cache.create ~name:"t" ~capacity:4 in
  let calls = ref 0 in
  (try
     ignore (Cache.find_or_add c "k" (fun () -> incr calls; failwith "no"))
   with Failure _ -> ());
  Alcotest.(check (option int)) "not cached" None (Cache.find c "k");
  ignore (Cache.find_or_add c "k" (fun () -> incr calls; 9));
  Alcotest.(check int) "produce retried" 2 !calls;
  Alcotest.(check (option int)) "now cached" (Some 9) (Cache.find c "k")

(* ---------- engine ---------- *)

let repair_line i =
  Protocol.request_line
    ~id:(Json.String (Printf.sprintf "r%d" i))
    ~op:Protocol.S_repair ~fds:"A -> B" ~table:"A,B\n1,2\n1,3\n" ()
  |> String.trim

let config ~capacity ~watermark =
  { Engine.default_config with
    queue_capacity = capacity;
    degrade_watermark = watermark }

let ok_exec ~conn:_ ~degraded:_ (_ : Protocol.request) = [ ("distance", Json.Float 1.0) ]

let feed engine i =
  Engine.handle_line engine ~conn:0 ~quota_used:0 (repair_line i)

(* Satellite: the deterministic overload scenario. Capacity 4, watermark
   2: requests 0-1 are admitted normally, 2-3 are admitted downgraded,
   4 is shed with a structured `overloaded` error; every accepted request
   completes; the final accounting identity balances. *)
let test_deterministic_overload () =
  let engine = Engine.create (config ~capacity:4 ~watermark:2) in
  for i = 0 to 3 do
    match feed engine i with
    | `Enqueued -> ()
    | _ -> Alcotest.failf "request %d was not admitted" i
  done;
  (match feed engine 4 with
  | `Reply line ->
    Alcotest.(check bool) "shed is an error" false (reply_ok line);
    Alcotest.(check string) "shed class" Protocol.err_overloaded
      (reply_class line)
  | _ -> Alcotest.fail "request 4 should have been shed");
  (* drain the queue; record which replies carry the downgrade marker *)
  let downgraded = ref [] in
  let rec run () =
    match Engine.take engine with
    | None -> ()
    | Some p ->
      let line = Engine.execute engine ~exec:ok_exec p in
      Alcotest.(check bool) "completed ok" true (reply_ok line);
      if reply_bool "degraded" line then begin
        (match Json.member "downgraded" (reply_json line) with
        | Some (Json.String "overload") -> ()
        | _ -> Alcotest.failf "degraded reply lacks downgrade marker: %S" line);
        downgraded := line :: !downgraded
      end;
      run ()
  in
  run ();
  Alcotest.(check int) "exactly the above-watermark admissions degraded" 2
    (List.length !downgraded);
  let c = Engine.counters engine in
  Alcotest.(check int) "admitted" 4 c.Engine.admitted;
  Alcotest.(check int) "completed" 4 c.Engine.completed;
  Alcotest.(check int) "shed" 1 c.Engine.shed;
  Alcotest.(check int) "degraded" 2 c.Engine.degraded;
  Alcotest.(check int) "queue_depth_max" 4 c.Engine.queue_depth_max;
  Alcotest.(check bool) "accounting identity" true (Engine.balanced engine)

let test_poison_isolation () =
  let engine = Engine.create (config ~capacity:8 ~watermark:8) in
  let poison_exec ~conn:_ ~degraded:_ (req : Protocol.request) =
    match req.Protocol.id with
    | Json.String "r0" ->
      E.raise_error (Parse { source = "<t>"; line = None; detail = "bad fds" })
    | Json.String "r1" -> failwith "wild exception"
    | _ -> [ ("distance", Json.Float 0.0) ]
  in
  for i = 0 to 2 do
    match feed engine i with
    | `Enqueued -> ()
    | _ -> Alcotest.failf "request %d not admitted" i
  done;
  let classes = ref [] in
  let rec run () =
    match Engine.take engine with
    | None -> ()
    | Some p ->
      let line = Engine.execute engine ~exec:poison_exec p in
      if not (reply_ok line) then classes := reply_class line :: !classes;
      run ()
  in
  run ();
  Alcotest.(check (list string)) "classified errors"
    [ "parse"; Protocol.err_internal ]
    (List.rev !classes);
  let c = Engine.counters engine in
  Alcotest.(check int) "quarantined" 2 c.Engine.quarantined;
  Alcotest.(check int) "completed" 1 c.Engine.completed;
  Alcotest.(check bool) "identity" true (Engine.balanced engine);
  (* poison must not poison the server: next request still served *)
  (match feed engine 9 with
  | `Enqueued -> ()
  | _ -> Alcotest.fail "engine stopped admitting after poison");
  match Engine.take engine with
  | Some p ->
    Alcotest.(check bool) "still serving" true
      (reply_ok (Engine.execute engine ~exec:ok_exec p))
  | None -> Alcotest.fail "queue empty"

let test_drain_and_cancel () =
  let engine = Engine.create (config ~capacity:8 ~watermark:8) in
  for i = 0 to 2 do ignore (feed engine i) done;
  Engine.drain engine;
  (* no admission during drain *)
  (match feed engine 3 with
  | `Reply line ->
    Alcotest.(check string) "draining class" Protocol.err_draining
      (reply_class line)
  | _ -> Alcotest.fail "admitted during drain");
  (* one request finishes inside the deadline, the rest are cancelled *)
  (match Engine.take engine with
  | Some p -> ignore (Engine.execute engine ~exec:ok_exec p)
  | None -> Alcotest.fail "queue empty");
  let cancelled = Engine.cancel_remaining engine in
  Alcotest.(check int) "two cancelled" 2 (List.length cancelled);
  List.iter
    (fun (_, line) ->
      Alcotest.(check string) "cancelled class" Protocol.err_cancelled
        (reply_class line))
    cancelled;
  let c = Engine.counters engine in
  Alcotest.(check int) "admitted" 3 c.Engine.admitted;
  Alcotest.(check int) "completed" 1 c.Engine.completed;
  Alcotest.(check int) "cancelled" 2 c.Engine.cancelled;
  Alcotest.(check bool) "identity after drain" true (Engine.balanced engine);
  match Json.member "serve" (Engine.snapshot_json engine) with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "snapshot mode" true
      (List.assoc_opt "mode" fields = Some (Json.String "draining"))
  | _ -> Alcotest.fail "snapshot lacks serve accounting"

let test_quota_shed () =
  let engine =
    Engine.create { (config ~capacity:8 ~watermark:8) with quota = Some 2 }
  in
  (match Engine.handle_line engine ~conn:0 ~quota_used:2 (repair_line 0) with
  | `Reply line ->
    Alcotest.(check string) "quota class" Protocol.err_quota (reply_class line)
  | _ -> Alcotest.fail "quota not enforced");
  match Engine.handle_line engine ~conn:0 ~quota_used:1 (repair_line 1) with
  | `Enqueued -> Alcotest.(check bool) "identity" true (Engine.balanced engine)
  | _ -> Alcotest.fail "under-quota request rejected"

let test_control_ops_bypass_admission () =
  let engine = Engine.create (config ~capacity:1 ~watermark:1) in
  ignore (feed engine 0);
  (* queue is now full; control ops must still answer immediately *)
  (match Engine.handle_line engine ~conn:0 ~quota_used:99
           {|{"id": "p", "op": "ping"}|} with
  | `Reply line -> Alcotest.(check bool) "pong" true (reply_ok line)
  | _ -> Alcotest.fail "ping queued");
  match Engine.handle_line engine ~conn:0 ~quota_used:0
          {|{"id": "d", "op": "drain"}|} with
  | `Drain line -> Alcotest.(check bool) "drain acked" true (reply_ok line)
  | _ -> Alcotest.fail "drain not signalled"

(* ---------- driver-backed executor ---------- *)

let budget () = Repair_runtime.Budget.create ()

let test_core_exec_repair () =
  let cache = R.Serve.make_cache () in
  let sessions = R.Serve.make_sessions () in
  let mutex = Mutex.create () in
  let req line =
    match Protocol.parse line with
    | Ok r -> r
    | Error r -> Alcotest.failf "bad request: %s" r.Protocol.detail
  in
  let fields =
    R.Serve.exec ~cache ~sessions ~mutex ~conn:0 ~degraded:false ~budget:(budget ())
      (req {|{"op": "s-repair", "fds": "A -> B", "table": "A,B\n1,2\n1,3\n"}|})
  in
  (match List.assoc_opt "distance" fields with
  | Some (Json.Float d) -> Alcotest.(check (float 1e-9)) "distance" 1.0 d
  | _ -> Alcotest.fail "no distance");
  (match List.assoc_opt "optimal" fields with
  | Some (Json.Bool b) -> Alcotest.(check bool) "optimal" true b
  | _ -> Alcotest.fail "no optimal flag");
  (* degraded forces the approximation rung *)
  let fields =
    R.Serve.exec ~cache ~sessions ~mutex ~conn:0 ~degraded:true ~budget:(budget ())
      (req {|{"op": "s-repair", "fds": "A -> B", "table": "A,B\n1,2\n1,3\n"}|})
  in
  (match List.assoc_opt "method" fields with
  | Some (Json.String m) ->
    let contains_sub hay needle =
      let h = String.lowercase_ascii hay and n = String.length needle in
      let rec at i = i + n <= String.length h
                     && (String.sub h i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "approx method" true
      (contains_sub m "approx" || contains_sub m "local")
  | _ -> Alcotest.fail "no method");
  (* classify is answered from the warm cache: same fds key hits *)
  let stats_before = (Cache.stats cache).Cache.hits in
  let fields =
    R.Serve.exec ~cache ~sessions ~mutex ~conn:0 ~degraded:false ~budget:(budget ())
      (req {|{"op": "classify", "fds": "A -> B"}|})
  in
  (match List.assoc_opt "s_tractable" fields with
  | Some (Json.Bool b) -> Alcotest.(check bool) "tractable" true b
  | _ -> Alcotest.fail "no s_tractable");
  Alcotest.(check bool) "warm hit" true
    ((Cache.stats cache).Cache.hits > stats_before)

let test_core_exec_parse_error_classified () =
  let cache = R.Serve.make_cache () in
  let sessions = R.Serve.make_sessions () in
  let mutex = Mutex.create () in
  match
    R.Serve.exec ~cache ~sessions ~mutex ~conn:0 ~degraded:false ~budget:(budget ())
      (match Protocol.parse {|{"op": "classify", "fds": "not an fd"}|} with
      | Ok r -> r
      | Error _ -> Alcotest.fail "request rejected")
  with
  | _ -> Alcotest.fail "garbage fds accepted"
  | exception E.Error (E.Parse _) -> ()

(* ---------- end to end over a real socket ---------- *)

let socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "repair_serve_%d.sock" (Unix.getpid ()))

(* ---------- live telemetry ---------- *)

let with_metrics f =
  Repair_obs.Metrics.reset ();
  Repair_obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Repair_obs.Metrics.disable ();
      Repair_obs.Metrics.reset ())
    f

(* The stats op under an injected clock: windows close deterministically,
   the windowed rate is non-zero after traffic, and the reply's
   cumulative totals equal the registry counters the metrics op reports
   (acceptance check (b) at engine level). *)
let test_stats_op () =
  with_metrics @@ fun () ->
  let now = ref 0.0 in
  let engine =
    Engine.create
      ~clock:(fun () -> !now)
      { (config ~capacity:8 ~watermark:8) with
        stats_interval_s = 1.0;
        stats_windows = 8 }
  in
  for i = 0 to 3 do
    match feed engine i with
    | `Enqueued -> ()
    | _ -> Alcotest.failf "request %d not admitted" i
  done;
  let rec drain () =
    match Engine.take engine with
    | Some p ->
      ignore (Engine.execute engine ~exec:ok_exec p);
      drain ()
    | None -> ()
  in
  drain ();
  now := 1.5;
  Engine.tick_stats engine;
  let line = {|{"id": "s1", "op": "stats", "fds": "-"}|} in
  match Engine.handle_line engine ~conn:0 ~quota_used:0 line with
  | `Enqueued | `Drain _ -> Alcotest.fail "stats must answer inline"
  | `Reply reply ->
    Alcotest.(check bool) "stats reply ok" true (reply_ok reply);
    let j = reply_json reply in
    let stats =
      match Json.member "stats" j with
      | Some s -> s
      | None -> Alcotest.fail "reply lacks stats"
    in
    (match Json.member "windows" stats with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "no closed windows in the stats reply");
    let rate =
      match
        Option.bind
          (Option.bind (Json.member "rates" stats)
             (Json.member "serve.requests"))
          Json.float_value
      with
      | Some r -> r
      | None -> Alcotest.fail "no serve.requests rate"
    in
    Alcotest.(check bool) "windowed rate non-zero" true (rate > 0.0);
    let total key =
      match
        Option.bind
          (Option.bind (Json.member "totals" j) (Json.member key))
          Json.int_value
      with
      | Some n -> n
      | None -> Alcotest.failf "no total for %s" key
    in
    Alcotest.(check int) "totals equal the registry counters"
      (Repair_obs.Metrics.counter "serve.requests")
      (total "serve.requests");
    Alcotest.(check int) "four requests settled" 4 (total "serve.requests");
    (* rolling p99 present for the request histogram *)
    (match
       Option.bind (Json.member "rolling" stats)
         (Json.member "serve.request")
     with
    | Some summary -> (
      match Repair_obs.Histogram.of_summary_json summary with
      | Ok h ->
        Alcotest.(check int) "rolling histogram holds the window" 4
          (Repair_obs.Histogram.count h)
      | Error m -> Alcotest.failf "rolling summary invalid: %s" m)
    | None -> Alcotest.fail "no rolling serve.request histogram");
    (* the embedded exposition passes the grammar checker *)
    (match Json.member "exposition" j with
    | Some (Json.String text) -> (
      match Repair_obs.Expo.check text with
      | Ok () -> ()
      | Error m -> Alcotest.failf "exposition fails its checker: %s" m)
    | _ -> Alcotest.fail "reply lacks exposition");
    (* accounting section rides along and still balances *)
    Alcotest.(check bool) "accounting balanced" true (Engine.balanced engine)

(* Slow-request records: with the threshold at 0 every settled request
   fires the callback with a structured record carrying the
   deterministic request id, op, outcome, and span breakdown. *)
let test_slow_log_records () =
  with_metrics @@ fun () ->
  let records = ref [] in
  let engine =
    Engine.create
      ~on_slow:(fun r -> records := r :: !records)
      { (config ~capacity:8 ~watermark:8) with slow_ms = Some 0.0 }
  in
  (match feed engine 0 with
  | `Enqueued -> ()
  | _ -> Alcotest.fail "not admitted");
  (match Engine.take engine with
  | Some p ->
    Alcotest.(check string) "deterministic request id" "c0.1"
      p.Engine.req_id;
    ignore (Engine.execute engine ~exec:ok_exec p)
  | None -> Alcotest.fail "nothing queued");
  match !records with
  | [ record ] ->
    let str key =
      match Option.bind (Json.member key record) Json.string_value with
      | Some s -> s
      | None -> Alcotest.failf "record lacks %s" key
    in
    Alcotest.(check string) "record req id" "c0.1" (str "req");
    Alcotest.(check string) "record op" "s-repair" (str "op");
    Alcotest.(check string) "record outcome" "ok" (str "outcome");
    Alcotest.(check bool) "wall_ms present" true
      (Option.bind (Json.member "wall_ms" record) Json.float_value <> None);
    Alcotest.(check bool) "queue_ms present" true
      (Option.bind (Json.member "queue_ms" record) Json.float_value <> None);
    Alcotest.(check bool) "span breakdown present" true
      (match Json.member "spans" record with
      | Some (Json.List _) -> true
      | _ -> false);
    Alcotest.(check int) "serve.slow counted" 1
      (Repair_obs.Metrics.counter "serve.slow")
  | rs -> Alcotest.failf "expected one slow record, got %d" (List.length rs)

let test_end_to_end_unix_socket () =
  let path = socket_path () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (* child: the daemon. Quiet stderr; never return into alcotest. *)
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code =
      try
        R.Serve.run
          ~config:
            { Engine.default_config with
              queue_capacity = 16;
              degrade_watermark = 8 }
          (Server.Unix_sock path)
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline
    do
      ignore (Unix.select [] [] [] 0.02)
    done;
    Alcotest.(check bool) "socket appeared" true (Sys.file_exists path);
    let report =
      Repair_workload.Load_gen.run
        { Repair_workload.Load_gen.default_spec with
          requests = 12;
          connections = 2;
          n_rows = 10;
          poison_every = Some 5;
          malformed_every = Some 6;
          wall_timeout_s = 20.0 }
        (Server.Unix_sock path)
    in
    Alcotest.(check int) "everything answered"
      report.Repair_workload.Load_gen.sent
      report.Repair_workload.Load_gen.answered;
    Alcotest.(check bool) "some requests repaired" true
      (report.Repair_workload.Load_gen.ok > 0);
    Alcotest.(check bool) "poison classified, not fatal" true
      (report.Repair_workload.Load_gen.failed > 0);
    Alcotest.(check bool) "malformed answered" true
      (report.Repair_workload.Load_gen.protocol_errors > 0);
    (* graceful drain on SIGTERM with an idle queue: clean exit 0 *)
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal"

(* A stream session belongs to its connection: once the connection
   closes, the session is dropped, which another connection sees as the
   [stream.sessions] gauge of the [stats] exposition going from 1 to 0. *)
let test_session_dropped_on_close () =
  let path = socket_path () ^ ".sessions" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code = try R.Serve.run (Server.Unix_sock path) with _ -> 99 in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.02)
    done;
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    in
    let request fd line =
      let line = line ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec read () =
        match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.fail "no reply"
        | _ -> (
          match Unix.read fd chunk 0 4096 with
          | 0 -> Alcotest.fail "connection closed before the reply"
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            if not (String.contains (Buffer.contents buf) '\n') then read ())
      in
      read ();
      Buffer.contents buf
    in
    let sessions stats =
      let exposition =
        match Json.member "exposition" (reply_json stats) with
        | Some (Json.String e) -> e
        | _ -> Alcotest.fail "stats reply lacks the exposition"
      in
      let prefix = "repair_stream_sessions " in
      match
        List.find_opt
          (String.starts_with ~prefix)
          (String.split_on_char '\n' exposition)
      with
      | Some l ->
        int_of_string
          (String.sub l (String.length prefix)
             (String.length l - String.length prefix))
      | None -> Alcotest.fail "no stream.sessions gauge"
    in
    let a = connect () and b = connect () in
    Fun.protect ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    @@ fun () ->
    Alcotest.(check bool) "stream reply ok" true
      (reply_ok
         (request a
            {|{"id": "s", "op": "stream", "fds": "A -> B", "table": "A,B\n1,1\n1,2\n", "deltas": "{\"op\": \"insert\", \"tuple\": [2, 2]}"}|}));
    let stats () = sessions (request b {|{"id": "t", "op": "stats"}|}) in
    Alcotest.(check int) "one session while its connection is open" 1 (stats ());
    Unix.close a;
    let give_up = Unix.gettimeofday () +. 5.0 in
    let rec settle () =
      match stats () with
      | 0 -> 0
      | n when Unix.gettimeofday () > give_up -> n
      | _ ->
        ignore (Unix.select [] [] [] 0.02);
        settle ()
    in
    Alcotest.(check int) "no session once it closed" 0 (settle ());
    Unix.kill pid Sys.sigterm;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal"

(* Slow-loris drill: a client that sends half a request line and stalls
   must be evicted within the read deadline — with the structured
   deadline-exceeded error on its way out — while a well-behaved
   connection keeps completing requests throughout, and the daemon still
   drains cleanly on SIGTERM. Wholly idle keep-alive connections (like B
   between its pings) are never evicted. *)
let test_slow_loris_eviction () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let path = socket_path () ^ ".loris" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code =
      try
        R.Serve.run
          ~config:
            { Engine.default_config with
              queue_capacity = 16;
              degrade_watermark = 8;
              read_deadline_s = Some 0.4;
              write_deadline_s = Some 0.4 }
          (Server.Unix_sock path)
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.02)
    done;
    Alcotest.(check bool) "socket appeared" true (Sys.file_exists path);
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    in
    let a = connect () and b = connect () in
    let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect
      ~finally:(fun () ->
        close_quiet a;
        close_quiet b)
    @@ fun () ->
    (* A: half a request line, then silence *)
    let partial = {|{"id": "loris", "op|} in
    ignore (Unix.write_substring a partial 0 (String.length partial));
    (* B: a healthy client that keeps completing *)
    let ping_b () =
      let line = {|{"id": "live", "op": "ping"}|} ^ "\n" in
      ignore (Unix.write_substring b line 0 (String.length line));
      match Unix.select [ b ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "healthy connection starved"
      | _ ->
        let buf = Bytes.create 4096 in
        let n = Unix.read b buf 0 4096 in
        Alcotest.(check bool) "B got a reply" true (n > 0);
        Alcotest.(check bool) "B's reply is ok" true
          (reply_ok (Bytes.sub_string buf 0 n))
    in
    ping_b ();
    (* A must be evicted within the deadline plus slack: the structured
       error (best-effort) and then EOF *)
    let t0 = Unix.gettimeofday () in
    let out = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let rec drain_a () =
      match Unix.select [ a ] [] [] 3.0 with
      | [], _, _ ->
        Alcotest.fail "stalled connection not evicted within its deadline"
      | _ -> (
        match Unix.read a chunk 0 4096 with
        | 0 -> () (* EOF: evicted *)
        | n ->
          Buffer.add_subbytes out chunk 0 n;
          drain_a ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ())
    in
    drain_a ();
    Alcotest.(check bool) "evicted within deadline + slack" true
      (Unix.gettimeofday () -. t0 < 3.0);
    Alcotest.(check bool) "eviction reply names the error class" true
      (contains (Buffer.contents out) Protocol.err_deadline);
    (* the healthy connection is unaffected by the eviction *)
    ping_b ();
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal"

(* The same drill against a 4-domain server: queued requests execute on
   the pool batch by batch, and the accounting identity
   [admitted = completed + quarantined + cancelled + queue_depth] must
   hold in the final snapshot the drained daemon writes. *)
let test_end_to_end_parallel_accounting () =
  let path = socket_path () ^ ".par" in
  let metrics_path = path ^ ".metrics.json" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (try Unix.unlink metrics_path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code =
      try
        R.Serve.run
          ~config:
            { Engine.default_config with
              queue_capacity = 16;
              degrade_watermark = 8 }
          ~metrics_out:metrics_path ~domains:4 (Server.Unix_sock path)
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.unlink metrics_path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.02)
    done;
    Alcotest.(check bool) "socket appeared" true (Sys.file_exists path);
    let report =
      Repair_workload.Load_gen.run
        { Repair_workload.Load_gen.default_spec with
          requests = 24;
          connections = 3;
          n_rows = 10;
          poison_every = Some 5;
          malformed_every = Some 7;
          wall_timeout_s = 20.0 }
        (Server.Unix_sock path)
    in
    Alcotest.(check int) "everything answered"
      report.Repair_workload.Load_gen.sent
      report.Repair_workload.Load_gen.answered;
    Alcotest.(check bool) "some requests repaired" true
      (report.Repair_workload.Load_gen.ok > 0);
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal");
    let ic = open_in_bin metrics_path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let snapshot =
      match Json.of_string text with
      | Ok j -> j
      | Error m -> Alcotest.failf "metrics snapshot is not JSON: %s" m
    in
    let serve_int key =
      match
        Option.bind
          (Option.bind (Json.member "serve" snapshot) (Json.member key))
          Json.int_value
      with
      | Some n -> n
      | None -> Alcotest.failf "snapshot lacks serve.%s" key
    in
    Alcotest.(check bool) "work was admitted" true (serve_int "admitted" > 0);
    Alcotest.(check int) "admitted = completed + quarantined + cancelled + queue_depth"
      (serve_int "admitted")
      (serve_int "completed" + serve_int "quarantined"
      + serve_int "cancelled" + serve_int "queue_depth")

(* Regression: a shed reply that schedules a retry must count once (in
   [retried]), not in [shed] as well — so with retries enabled against a
   deliberately tiny queue, every original request still resolves to
   exactly one terminal outcome: ok + shed + failed + protocol = requests.
   (The old double-count made that sum exceed [requests] by [retried].)
   report_json additionally asserts the reply-level identities. *)
let test_load_gen_retry_accounting () =
  let path = socket_path () ^ ".retry" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code =
      try
        R.Serve.run
          ~config:
            { Engine.default_config with
              queue_capacity = 1;
              degrade_watermark = 1 }
          (Server.Unix_sock path)
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.02)
    done;
    Alcotest.(check bool) "socket appeared" true (Sys.file_exists path);
    let requests = 30 in
    let report =
      Repair_workload.Load_gen.run
        { Repair_workload.Load_gen.default_spec with
          requests;
          connections = 6;
          op = Repair_serve.Protocol.Classify;
          retries = 6;
          retry_backoff_ms = 20;
          wall_timeout_s = 30.0 }
        (Server.Unix_sock path)
    in
    let open Repair_workload.Load_gen in
    (* report_json runs the identity assertions *)
    ignore (report_json report);
    Alcotest.(check int) "everything answered" report.sent report.answered;
    Alcotest.(check bool) "the tiny queue shed and retries fired" true
      (report.retried > 0);
    Alcotest.(check int)
      "each request resolved to exactly one terminal outcome" requests
      (report.ok + report.shed + report.failed + report.protocol_errors);
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal"

(* ---------- the client framing (Wire) ---------- *)

module Wire = Repair_workload.Wire
module Line_reader = Repair_serve.Line_reader
module Io_fault = Repair_runtime.Io_fault

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) (fun () -> f a b)

let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_wire_one_write_two_lines () =
  with_socketpair @@ fun a b ->
  write_string a "{\"id\": 1}\n{\"id\": 2}\n";
  let w = Line_reader.of_fd b in
  let first = Wire.read_line w in
  let second = Wire.read_line w in
  Alcotest.(check (list (option string)))
    "two lines, in order"
    [ Some "{\"id\": 1}"; Some "{\"id\": 2}" ]
    [ first; second ]

let test_wire_long_line_in_pieces () =
  with_socketpair @@ fun a b ->
  let line = String.init 200_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let text = line ^ "\ntail\n" in
  let writer =
    Domain.spawn (fun () ->
        let rec go off =
          if off < String.length text then begin
            let n = min 1024 (String.length text - off) in
            ignore (Unix.write_substring a text off n);
            go (off + n)
          end
        in
        go 0)
  in
  let w = Line_reader.of_fd b in
  let first = Wire.read_line w in
  let second = Wire.read_line w in
  Domain.join writer;
  Alcotest.(check bool) "200 KB line whole" true (first = Some line);
  Alcotest.(check (option string)) "then the next line" (Some "tail") second

let test_wire_eof_mid_line () =
  with_socketpair @@ fun a b ->
  write_string a "{\"id\": 1}\n{\"partial\":";
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  let w = Line_reader.of_fd b in
  Alcotest.(check (option string)) "complete line" (Some "{\"id\": 1}")
    (Wire.read_line w);
  Alcotest.(check (option string)) "no partial line" None (Wire.read_line w)

(* A server that closes mid-reply gives [top] its "closed" error, not
   a parse error on half a line. *)
let test_top_fetch_closed_mid_reply () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repair_wire_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Domain.spawn (fun () ->
        let w = Line_reader.of_fd (fst (Unix.accept lfd)) in
        let request = Wire.read_line w in
        write_string (Line_reader.fd w) "{\"ok\": tr";
        Wire.close w;
        request)
  in
  let r = Repair_workload.Top.fetch (Server.Unix_sock path) in
  Alcotest.(check bool) "the stats request arrived" true
    (Domain.join server <> None);
  match r with
  | Error m ->
    Alcotest.(check string) "closed error"
      "top: server closed the connection without a reply" m
  | Ok _ -> Alcotest.fail "half a reply must not parse"

let test_wire_send_short_writes () =
  with_socketpair @@ fun a b ->
  let body = String.init 10_000 (fun i -> Char.chr (48 + (i mod 10))) in
  let short at = { Io_fault.op = Io_fault.Write; at; kind = Io_fault.Short_write } in
  Io_fault.with_plan [ short 1; short 2; short 3 ] (fun () ->
      Wire.send (Line_reader.of_fd a) (body ^ "\n");
      Alcotest.(check int) "three short writes" 3
        (List.length (Io_fault.fired ())));
  Alcotest.(check bool) "every byte, in order" true
    (Wire.read_line (Line_reader.of_fd b) = Some body)

(* The daemon's own framing, over a real socket, with a 4 KB request
   limit: an over-limit line arriving in pieces gets one [oversized]
   reply, at once if it is still unfinished, and the connection keeps
   working; a CRLF line is a line, whose
   CR the limit does not count; and a request written a byte at a time
   is answered once. *)
let test_daemon_framing () =
  let path = socket_path () ^ ".framing" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stderr;
    let code =
      try
        R.Serve.run
          ~config:{ Engine.default_config with max_request_bytes = 4096 }
          (Server.Unix_sock path)
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.02)
    done;
    let w = Wire.connect (Server.Unix_sock path) in
    Fun.protect ~finally:(fun () -> Wire.close w) @@ fun () ->
    let fd = Line_reader.fd w in
    (* A lost reply fails the read instead of hanging the suite. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    let write_in pieces text =
      let rec go off =
        if off < String.length text then begin
          let n = min pieces (String.length text - off) in
          write_string fd (String.sub text off n);
          go (off + n)
        end
      in
      go 0
    in
    let reply () =
      match Wire.read_line w with
      | Some line -> line
      | None -> Alcotest.fail "connection closed before the reply"
    in
    let ping id = Printf.sprintf {|{"id": %d, "op": "ping"}|} id in
    let is_pong id line =
      reply_ok line && Json.member "id" (reply_json line) = Some (Json.Int id)
    in
    write_in 1024 (String.make 4097 'x' ^ "\n");
    Wire.send w (ping 1 ^ "\n");
    let first = reply () in
    Alcotest.(check string) "one oversized reply" Protocol.err_oversized
      (reply_class first);
    Alcotest.(check bool) "then the ping is answered" true
      (is_pong 1 (reply ()));
    (* An unfinished line already over the limit is answered at once,
       and its bytes are dropped through the newline. *)
    write_in 1024 (String.make 5000 'x');
    Alcotest.(check string) "an unfinished over-limit line is answered"
      Protocol.err_oversized (reply_class (reply ()));
    write_in 1024 (String.make 3000 'x' ^ "\n");
    Wire.send w (ping 6 ^ "\n");
    Alcotest.(check bool) "its tail is dropped through the newline" true
      (is_pong 6 (reply ()));
    Wire.send w (ping 2 ^ "\r\n");
    Alcotest.(check bool) "a CRLF ping is answered" true (is_pong 2 (reply ()));
    (* The CR is not counted: 4096 bytes before the CRLF are in limit. *)
    let padded = ping 5 ^ String.make (4096 - String.length (ping 5)) ' ' in
    Wire.send w (padded ^ "\r\n");
    Alcotest.(check bool) "a 4096-byte CRLF ping is answered" true
      (is_pong 5 (reply ()));
    write_in 1 (ping 3 ^ "\n");
    Alcotest.(check bool) "a ping a byte at a time is answered" true
      (is_pong 3 (reply ()));
    Wire.send w (ping 4 ^ "\n");
    Alcotest.(check bool) "and answered once" true (is_pong 4 (reply ()));
    Unix.kill pid Sys.sigterm;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon killed by signal"

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "total parser" `Quick test_protocol_total;
          Alcotest.test_case "control ops" `Quick test_protocol_control_ops ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "failed produce" `Quick
            test_cache_failed_produce_not_cached ] );
      ( "engine",
        [ Alcotest.test_case "deterministic overload" `Quick
            test_deterministic_overload;
          Alcotest.test_case "poison isolation" `Quick test_poison_isolation;
          Alcotest.test_case "drain and cancel" `Quick test_drain_and_cancel;
          Alcotest.test_case "quota shed" `Quick test_quota_shed;
          Alcotest.test_case "control ops bypass admission" `Quick
            test_control_ops_bypass_admission ] );
      ( "telemetry",
        [ Alcotest.test_case "stats op: windows, rates, totals" `Quick
            test_stats_op;
          Alcotest.test_case "slow-request records" `Quick
            test_slow_log_records ] );
      ( "executor",
        [ Alcotest.test_case "driver-backed repair" `Quick
            test_core_exec_repair;
          Alcotest.test_case "parse error classified" `Quick
            test_core_exec_parse_error_classified ] );
      ( "end-to-end",
        [ Alcotest.test_case "unix socket burst + drain" `Quick
            test_end_to_end_unix_socket;
          Alcotest.test_case "slow-loris client evicted" `Quick
            test_slow_loris_eviction;
          Alcotest.test_case "stream session dropped on close" `Quick
            test_session_dropped_on_close;
          Alcotest.test_case "4-domain server keeps the books balanced"
            `Quick test_end_to_end_parallel_accounting;
          Alcotest.test_case "retry accounting counts each reply once"
            `Quick test_load_gen_retry_accounting;
          Alcotest.test_case "daemon framing: oversized, CRLF, byte writes"
            `Quick test_daemon_framing ] );
      ( "wire",
        [ Alcotest.test_case "one write, two lines" `Quick
            test_wire_one_write_two_lines;
          Alcotest.test_case "200 KB line in 1 KB pieces" `Quick
            test_wire_long_line_in_pieces;
          Alcotest.test_case "EOF before a newline" `Quick
            test_wire_eof_mid_line;
          Alcotest.test_case "top: closed mid-reply" `Quick
            test_top_fetch_closed_mid_reply;
          Alcotest.test_case "send loops on short writes" `Quick
            test_wire_send_short_writes ] ) ]
