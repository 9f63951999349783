(* The observability layer itself: metamorphic properties of the metrics
   registry (monotone counters, span nesting, pristine reset), the JSON
   codec, and the guarantee that instrumentation never changes solver
   results. *)

open Repair_relational
module Json = Repair_obs.Json
module Metrics = Repair_obs.Metrics
module R = Repair_core.Repair

let with_enabled f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    f

(* ---------- counters ---------- *)

let test_counters_monotone () =
  with_enabled @@ fun () ->
  let seen = ref [] in
  List.iter
    (fun by ->
      Metrics.incr ~by "m";
      seen := Metrics.counter "m" :: !seen)
    [ 1; 0; 5; 2; 0; 3 ];
  let decreasing =
    List.exists2 (fun later earlier -> later < earlier) !seen
      (List.tl !seen @ [ 0 ])
  in
  Alcotest.(check bool) "counter never decreases" false decreasing;
  Alcotest.(check int) "final value is the sum" 11 (Metrics.counter "m")

let test_counter_negative_rejected () =
  with_enabled @@ fun () ->
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) "m")

let test_counter_default_zero () =
  with_enabled @@ fun () ->
  Alcotest.(check int) "unknown counter reads 0" 0 (Metrics.counter "nope")

let test_counters_sorted () =
  with_enabled @@ fun () ->
  Metrics.incr "zeta";
  Metrics.incr "alpha";
  Metrics.incr "mid";
  Alcotest.(check (list string))
    "sorted by name" [ "alpha"; "mid"; "zeta" ]
    (List.map fst (Metrics.counters ()))

(* ---------- spans ---------- *)

let busy_wait seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let test_nested_spans_sum_to_parent () =
  with_enabled @@ fun () ->
  Metrics.with_span "parent" (fun () ->
      Metrics.with_span "a" (fun () -> busy_wait 0.002);
      Metrics.with_span "b" (fun () -> busy_wait 0.002);
      Metrics.with_span "a" (fun () -> busy_wait 0.001));
  match Metrics.spans () with
  | [ parent ] ->
    Alcotest.(check string) "root span" "parent" parent.Metrics.name;
    Alcotest.(check int) "two distinct children" 2
      (List.length parent.Metrics.children);
    let child_total =
      List.fold_left
        (fun acc c -> acc +. c.Metrics.total_s)
        0.0 parent.Metrics.children
    in
    Alcotest.(check bool) "children sum <= parent" true
      (child_total <= parent.Metrics.total_s +. 1e-6);
    let a =
      List.find (fun c -> c.Metrics.name = "a") parent.Metrics.children
    in
    Alcotest.(check int) "re-entered child aggregates" 2 a.Metrics.count
  | spans ->
    Alcotest.failf "expected exactly one top-level span, got %d"
      (List.length spans)

let test_span_records_on_raise () =
  with_enabled @@ fun () ->
  (try Metrics.with_span "dying" (fun () -> raise Exit) with Exit -> ());
  match Metrics.span_total "dying" with
  | Some t -> Alcotest.(check bool) "duration recorded" true (t >= 0.0)
  | None -> Alcotest.fail "span lost on exception"

let test_span_total_path () =
  with_enabled @@ fun () ->
  Metrics.with_span "outer" (fun () ->
      Metrics.with_span "inner" (fun () -> busy_wait 0.001));
  Alcotest.(check bool) "path resolves" true
    (Metrics.span_total "outer/inner" <> None);
  Alcotest.(check bool) "missing path is None" true
    (Metrics.span_total "outer/nope" = None)

let test_disabled_records_nothing () =
  Metrics.reset ();
  Metrics.disable ();
  let r = Metrics.with_span "ghost" (fun () -> Metrics.incr "ghost"; 42) in
  Alcotest.(check int) "with_span is transparent" 42 r;
  Metrics.enable ();
  Alcotest.(check int) "no counter" 0 (Metrics.counter "ghost");
  Alcotest.(check bool) "no span" true (Metrics.spans () = []);
  Metrics.disable ()

let test_reset_pristine () =
  Metrics.reset ();
  Metrics.enable ();
  let pristine = Json.to_string (Metrics.snapshot ()) in
  Metrics.incr ~by:7 "dirt";
  Metrics.with_span "work" (fun () -> busy_wait 0.001);
  Alcotest.(check bool) "registry is dirty" true
    (Json.to_string (Metrics.snapshot ()) <> pristine);
  Metrics.reset ();
  Alcotest.(check string) "reset restores the pristine snapshot" pristine
    (Json.to_string (Metrics.snapshot ()));
  Metrics.disable ()

(* ---------- solver results are instrumentation-independent ---------- *)

let build_instance (seed, n, noise) =
  let module W = Repair_workload in
  let rng = W.Rng.make seed in
  let schema, d = W.Gen_fd.random rng ~n_attrs:3 ~n_fds:2 ~max_lhs:2 in
  let tbl =
    W.Gen_table.dirty rng schema d
      { W.Gen_table.default with n; noise; domain_size = 3 }
  in
  (d, tbl)

let gen_instance =
  QCheck2.Gen.(
    triple (int_range 0 1_000_000) (int_range 1 8) (oneofl [ 0.1; 0.25; 0.5 ]))

let print_instance (seed, n, noise) =
  Printf.sprintf "seed=%d n=%d noise=%g" seed n noise

let qcheck_same_repair =
  Helpers.qcheck ~count:100 ~print:print_instance
    "driver returns the same repair with metrics on and off" gen_instance
    (fun inst ->
      let d, tbl = build_instance inst in
      Metrics.reset ();
      Metrics.disable ();
      let off = R.Driver.s_repair d tbl in
      Metrics.reset ();
      Metrics.enable ();
      let on = R.Driver.s_repair d tbl in
      Metrics.disable ();
      Metrics.reset ();
      Table.equal off.R.Driver.result on.R.Driver.result
      && off.R.Driver.method_used = on.R.Driver.method_used)

(* ---------- the tracer ---------- *)

module Trace = Repair_obs.Trace
module Trace_export = Repair_obs.Trace_export
module Histogram = Repair_obs.Histogram

let with_trace ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let names events = List.map (fun e -> e.Trace.name) events
let kinds events = List.map (fun e -> e.Trace.kind) events

let test_trace_spans_balanced () =
  with_trace @@ fun () ->
  Metrics.with_span "outer" (fun () ->
      Metrics.with_span "inner" ignore;
      Trace.instant "tick");
  let events = Trace.events () in
  Alcotest.(check (list string))
    "names in emission order"
    [ "outer"; "inner"; "inner"; "tick"; "outer" ]
    (names events);
  Alcotest.(check bool)
    "kinds are B B E i E" true
    (kinds events = Trace.[ Begin; Begin; End; Instant; End ]);
  match Trace_export.validate events with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "validate rejected a balanced trace: %s" msg

let test_trace_balanced_on_raise () =
  with_trace @@ fun () ->
  (try Metrics.with_span "dying" (fun () -> raise Exit) with Exit -> ());
  let events = Trace.events () in
  Alcotest.(check bool)
    "B/E pair survives the exception" true
    (kinds events = Trace.[ Begin; End ] && names events = [ "dying"; "dying" ]);
  Alcotest.(check bool) "validates" true (Trace_export.validate events = Ok ())

let test_trace_overflow_drops_oldest () =
  with_trace ~capacity:4 @@ fun () ->
  for i = 0 to 9 do
    Trace.instant (Printf.sprintf "i%d" i)
  done;
  Alcotest.(check (list string))
    "ring keeps the newest events" [ "i6"; "i7"; "i8"; "i9" ]
    (names (Trace.events ()));
  Alcotest.(check int) "six evictions" 6 (Trace.dropped ());
  Alcotest.(check int) "surfaced as the trace.dropped counter" 6
    (Metrics.counter "trace.dropped");
  Alcotest.(check bool) "and listed in counters ()" true
    (List.assoc_opt "trace.dropped" (Metrics.counters ()) = Some 6);
  Trace.reset ();
  Alcotest.(check int) "reset clears the drop count" 0 (Trace.dropped ())

let test_trace_monotone () =
  with_trace ~capacity:8 @@ fun () ->
  for i = 0 to 19 do
    Trace.instant (string_of_int i)
  done;
  let events = Trace.events () in
  let ok_ts =
    List.for_all2
      (fun a b -> a.Trace.ts <= b.Trace.ts && a.Trace.seq < b.Trace.seq)
      (List.filteri (fun i _ -> i < List.length events - 1) events)
      (List.tl events)
  in
  Alcotest.(check bool) "ts non-decreasing, seq increasing" true ok_ts

let test_trace_disabled_records_nothing () =
  Trace.disable ();
  Trace.reset ();
  Trace.begin_ "ghost";
  Trace.instant "ghost";
  Trace.end_ "ghost";
  Alcotest.(check bool) "no events" true (Trace.events () = []);
  Alcotest.(check int) "no drops" 0 (Trace.dropped ())

let qcheck_same_repair_traced =
  Helpers.qcheck ~count:50 ~print:print_instance
    "driver returns the same repair with tracing on and off" gen_instance
    (fun inst ->
      let d, tbl = build_instance inst in
      Trace.disable ();
      Trace.reset ();
      let off = R.Driver.s_repair d tbl in
      Trace.enable ~capacity:1024 ();
      let on =
        Fun.protect ~finally:(fun () ->
            Trace.disable ();
            Trace.reset ())
          (fun () -> R.Driver.s_repair d tbl)
      in
      Table.equal off.R.Driver.result on.R.Driver.result
      && off.R.Driver.method_used = on.R.Driver.method_used)

(* ---------- histograms ---------- *)

let test_histogram_buckets () =
  Alcotest.(check int) "zero lands in bucket 0" 0 (Histogram.bucket_of 0.0);
  Alcotest.(check int) "below lowest lands in bucket 0" 0
    (Histogram.bucket_of (Histogram.lowest /. 10.0));
  Alcotest.(check int) "above highest lands in the overflow bucket"
    (Histogram.n_buckets - 1)
    (Histogram.bucket_of (2.0 *. Histogram.highest));
  for i = 0 to Histogram.n_buckets - 2 do
    let lo, hi = Histogram.bounds i in
    Alcotest.(check int)
      (Printf.sprintf "geometric midpoint of bucket %d maps back" i)
      i
      (Histogram.bucket_of (Float.sqrt (lo *. hi)))
  done;
  let lo, hi = Histogram.bounds (Histogram.n_buckets - 1) in
  Alcotest.(check bool) "overflow bucket is [highest, inf)" true
    (lo = Histogram.highest && hi = infinity)

let test_histogram_stats () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.quantile h 0.5);
  List.iter (Histogram.observe h) [ 0.001; 0.002; 0.004; -1.0 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum (negative clamped to 0)" 0.007
    (Histogram.sum h);
  Alcotest.(check (float 0.0)) "min" 0.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "max" 0.004 (Histogram.max_value h);
  (* All mass in one value: every quantile is clamped to that value. *)
  let h1 = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.observe h1 0.001
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "degenerate q=%g" q)
        0.001 (Histogram.quantile h1 q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 0.001; 0.010 ];
  List.iter (Histogram.observe b) [ 0.100; 0.500; 2.0 ];
  let all = Histogram.create () in
  List.iter (Histogram.observe all) [ 0.001; 0.010; 0.100; 0.500; 2.0 ];
  let m = Histogram.copy a in
  Histogram.merge ~into:m b;
  Alcotest.(check int) "merged count" 5 (Histogram.count m);
  Alcotest.(check bool) "merge equals observing everything" true
    (Histogram.summary_json m = Histogram.summary_json all);
  Alcotest.(check int) "merge source untouched" 3 (Histogram.count b);
  Alcotest.(check int) "copy detached a from m" 2 (Histogram.count a)

let test_histogram_json_roundtrip () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0.0005; 0.003; 0.003; 0.047; 1.5 ];
  let j = Histogram.summary_json h in
  (* Through the printer too: the summary must survive the codec. *)
  let reparsed =
    match Json.of_string (Json.to_string j) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "summary does not reparse: %s" msg
  in
  match Histogram.of_summary_json reparsed with
  | Error msg -> Alcotest.failf "of_summary_json: %s" msg
  | Ok h' ->
    Alcotest.(check int) "count" (Histogram.count h) (Histogram.count h');
    Alcotest.(check (float 1e-9)) "mean" (Histogram.mean h) (Histogram.mean h');
    List.iter
      (fun q ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "q=%g" q)
          (Histogram.quantile h q) (Histogram.quantile h' q))
      [ 0.5; 0.9; 0.99 ];
    Alcotest.(check bool) "bucket counts identical" true
      (Json.member "buckets" (Histogram.summary_json h')
      = Json.member "buckets" j)

let test_histogram_json_rejects_mismatch () =
  let j =
    Json.Obj
      [ ("count", Json.Int 3);
        ("mean_ms", Json.Float 1.0);
        ("min_ms", Json.Float 1.0);
        ("max_ms", Json.Float 1.0);
        ("p50_ms", Json.Float 1.0);
        ("p90_ms", Json.Float 1.0);
        ("p99_ms", Json.Float 1.0);
        ("buckets", Json.Obj [ ("0", Json.Int 1) ]) ]
  in
  match Histogram.of_summary_json j with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bucket counts that disagree with count"

let test_span_histograms () =
  with_enabled @@ fun () ->
  Metrics.with_span "h" (fun () -> busy_wait 0.001);
  Metrics.with_span "h" ignore;
  match Metrics.histogram "h" with
  | None -> Alcotest.fail "with_span did not feed a histogram"
  | Some h ->
    Alcotest.(check int) "one observation per span" 2 (Histogram.count h);
    Alcotest.(check bool) "max >= busy wait" true
      (Histogram.max_value h >= 0.001);
    Alcotest.(check bool) "listed in histograms ()" true
      (List.mem_assoc "h" (Metrics.histograms ()))

(* ---------- Chrome export ---------- *)

let ev seq ts kind name =
  { Trace.seq; ts; kind; name; req = None; tid = Trace.tid_main }

let test_chrome_roundtrip () =
  with_trace @@ fun () ->
  Metrics.with_span "a" (fun () ->
      Trace.instant "p";
      Metrics.with_span "b" ignore);
  let events = Trace.events () in
  let doc = Trace_export.to_chrome events ~dropped:0 in
  (* Reparse through the printer, as repair-cli profile does. *)
  let doc =
    match Json.of_string (Json.to_string ~pretty:true doc) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "export does not reparse: %s" msg
  in
  match Trace_export.of_chrome doc with
  | Error msg -> Alcotest.failf "of_chrome: %s" msg
  | Ok (events', dropped) ->
    Alcotest.(check int) "dropped preserved" 0 dropped;
    Alcotest.(check (list string)) "names" (names events) (names events');
    Alcotest.(check bool) "kinds" true (kinds events = kinds events');
    List.iter2
      (fun e e' ->
        Alcotest.(check (float 1e-6)) "ts survives µs round trip" e.Trace.ts
          e'.Trace.ts)
      events events'

let test_chrome_dropped_preserved () =
  with_trace ~capacity:2 @@ fun () ->
  List.iter Trace.instant [ "a"; "b"; "c"; "d"; "e" ];
  let doc = Trace_export.to_chrome (Trace.events ()) ~dropped:(Trace.dropped ()) in
  match Trace_export.of_chrome doc with
  | Ok (events', dropped) ->
    Alcotest.(check int) "dropped round trips" 3 dropped;
    Alcotest.(check (list string)) "surviving events" [ "d"; "e" ]
      (names events')
  | Error msg -> Alcotest.failf "of_chrome: %s" msg

let test_validate_rejects () =
  let reject what events =
    match Trace_export.validate events with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  reject "an unclosed span" [ ev 0 0.0 Trace.Begin "a" ];
  reject "an orphan end"
    [ ev 0 0.0 Trace.Begin "a"; ev 1 1.0 Trace.End "a"; ev 2 2.0 Trace.End "a" ];
  reject "a name mismatch"
    [ ev 0 0.0 Trace.Begin "a"; ev 1 1.0 Trace.End "b" ];
  reject "a clock step backwards"
    [ ev 0 1.0 Trace.Instant "a"; ev 1 0.5 Trace.Instant "b" ];
  (* A lossy ring legitimately starts with orphaned ends. *)
  match
    Trace_export.validate ~dropped:1
      [ ev 0 0.0 Trace.End "evicted"; ev 1 1.0 Trace.Begin "a";
        ev 2 2.0 Trace.End "a" ]
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "lossy head rejected: %s" msg

let test_hotspots () =
  (* a [0,4] contains b [1,3]: a self = 2, b self = 2; instants only
     count when no span shares the name. *)
  let events =
    [ ev 0 0.0 Trace.Begin "a"; ev 1 1.0 Trace.Begin "b";
      ev 2 1.5 Trace.Instant "b"; ev 3 3.0 Trace.End "b";
      ev 4 3.5 Trace.Instant "mark"; ev 5 4.0 Trace.End "a" ]
  in
  let hs = Trace_export.hotspots events in
  let find n = List.find (fun h -> h.Trace_export.name = n) hs in
  let a = find "a" and b = find "b" and mark = find "mark" in
  Alcotest.(check (float 1e-9)) "a total" 4.0 a.Trace_export.total_s;
  Alcotest.(check (float 1e-9)) "a self" 2.0 a.Trace_export.self_s;
  Alcotest.(check (float 1e-9)) "b total" 2.0 b.Trace_export.total_s;
  Alcotest.(check (float 1e-9)) "b self" 2.0 b.Trace_export.self_s;
  Alcotest.(check int) "span beats instant for b" 1 b.Trace_export.count;
  Alcotest.(check int) "bare instant counted" 1 mark.Trace_export.count;
  Alcotest.(check (float 0.0)) "bare instant has no duration" 0.0
    mark.Trace_export.total_s;
  let report = Fmt.str "%a" (Trace_export.pp_hotspots ~top:10) hs in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report has a total line" true
    (contains report "total:")

(* ---------- windowed histogram subtraction ---------- *)

let test_histogram_diff () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0.001; 0.010 ];
  let base = Histogram.copy h in
  List.iter (Histogram.observe h) [ 0.010; 0.500 ];
  let d = Histogram.diff ~since:base h in
  Alcotest.(check int) "delta count" 2 (Histogram.count d);
  (* The delta's bucket counts equal a histogram of just the window's
     observations — the property rolling quantiles rely on. *)
  let fresh = Histogram.create () in
  List.iter (Histogram.observe fresh) [ 0.010; 0.500 ];
  Alcotest.(check bool) "delta buckets equal fresh observation" true
    (Histogram.buckets d = Histogram.buckets fresh);
  Alcotest.(check (float 1e-9)) "delta sum" 0.510 (Histogram.sum d);
  (* min/max are bucket-edge approximations bracketing the real extremes *)
  Alcotest.(check bool) "approx min below real min" true
    (Histogram.min_value d <= 0.010 && Histogram.min_value d > 0.0);
  Alcotest.(check bool) "approx max above real max" true
    (Histogram.max_value d >= 0.500);
  (* diff against the current state is empty *)
  let e = Histogram.diff ~since:(Histogram.copy h) h in
  Alcotest.(check int) "empty window" 0 (Histogram.count e);
  Alcotest.(check (float 0.0)) "empty window sum" 0.0 (Histogram.sum e);
  (* a reversed diff (since ahead of t) clamps to empty, never negative *)
  let r = Histogram.diff ~since:h base in
  Alcotest.(check int) "reversed diff clamps to empty" 0 (Histogram.count r)

let test_histogram_empty_json () =
  let e = Histogram.create () in
  match Histogram.of_summary_json (Histogram.summary_json e) with
  | Error msg -> Alcotest.failf "empty summary does not round trip: %s" msg
  | Ok e' ->
    Alcotest.(check int) "empty round trips to empty" 0 (Histogram.count e');
    Alcotest.(check (float 0.0)) "empty quantile" 0.0
      (Histogram.quantile e' 0.99);
    (* merging two round-tripped empties is still the pristine summary *)
    let m = Histogram.create () in
    Histogram.merge ~into:m e';
    (match Histogram.of_summary_json (Histogram.summary_json e) with
    | Error msg -> Alcotest.failf "second empty: %s" msg
    | Ok e'' -> Histogram.merge ~into:m e'');
    Alcotest.(check int) "merge of empties is empty" 0 (Histogram.count m);
    Alcotest.(check bool) "merge of empties has the pristine summary" true
      (Histogram.summary_json m = Histogram.summary_json (Histogram.create ()))

(* ---------- ring wrap with mixed event kinds ---------- *)

let test_trace_wrap_mixed () =
  with_trace ~capacity:8 @@ fun () ->
  (* 5 spans of B/i/E = 15 events through an 8-slot ring *)
  for i = 1 to 5 do
    let s = Printf.sprintf "s%d" i in
    Trace.begin_ s;
    Trace.instant (Printf.sprintf "i%d" i);
    Trace.end_ s
  done;
  let events = Trace.events () in
  Alcotest.(check int) "ring holds exactly capacity" 8 (List.length events);
  Alcotest.(check int) "dropped counts every eviction" 7 (Trace.dropped ());
  (* the survivors are the newest events, in order, seq preserved *)
  Alcotest.(check (list int)) "survivor seqs contiguous to the end"
    [ 7; 8; 9; 10; 11; 12; 13; 14 ]
    (List.map (fun e -> e.Trace.seq) events);
  Alcotest.(check bool) "head is an orphaned non-Begin" true
    (match events with e :: _ -> e.Trace.kind <> Trace.Begin | [] -> false);
  (* the lossy stream still validates when drops are declared... *)
  (match Trace_export.validate ~dropped:(Trace.dropped ()) events with
  | Ok () -> ()
  | Error m -> Alcotest.failf "lossy trace should validate: %s" m);
  (* ...and the Chrome export round-trips events and the drop count *)
  let doc = Trace_export.to_chrome events ~dropped:(Trace.dropped ()) in
  match Trace_export.of_chrome doc with
  | Error m -> Alcotest.failf "export does not reparse: %s" m
  | Ok (events', dropped') ->
    Alcotest.(check int) "drop count survives export" 7 dropped';
    Alcotest.(check (list string)) "names survive export"
      (List.map (fun e -> e.Trace.name) events)
      (List.map (fun e -> e.Trace.name) events');
    Alcotest.(check bool) "kinds survive export" true
      (List.map (fun e -> e.Trace.kind) events
      = List.map (fun e -> e.Trace.kind) events')

(* ---------- request context, capture, and lanes ---------- *)

let test_trace_request_context () =
  with_trace @@ fun () ->
  Trace.instant "outside";
  Trace.with_request "r1" (fun () ->
      Trace.instant "inside";
      Trace.with_request "r2" (fun () -> Trace.instant "nested"));
  (try Trace.with_request "r3" (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "context restored after raise" true
    (Trace.current_request () = None);
  Trace.instant "after";
  let reqs = List.map (fun e -> e.Trace.req) (Trace.events ()) in
  Alcotest.(check bool) "req threaded and restored" true
    (reqs = [ None; Some "r1"; Some "r2"; None ]);
  Alcotest.(check bool) "owner events ride lane tid_main" true
    (List.for_all (fun e -> e.Trace.tid = Trace.tid_main) (Trace.events ()))

let test_trace_capture_inject () =
  with_trace @@ fun () ->
  Trace.begin_ "owner";
  let got = ref [] in
  Trace.with_capture
    (fun evs -> got := evs)
    (fun () ->
      Trace.with_request "r9" (fun () ->
          Trace.begin_ "task";
          Trace.instant "tick";
          Trace.end_ "task"));
  Alcotest.(check int) "captured events bypass the ring" 1
    (List.length (Trace.events ()));
  Alcotest.(check int) "capture delivered all three" 3 (List.length !got);
  Trace.inject ~tid:5 !got;
  Trace.end_ "owner";
  let events = Trace.events () in
  Alcotest.(check int) "ring has owner pair plus injected three" 5
    (List.length events);
  Alcotest.(check (list int)) "seqs reassigned contiguously" [ 0; 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.seq) events);
  let lanes = List.map (fun e -> e.Trace.tid) events in
  Alcotest.(check (list int)) "injected events take their lane"
    [ Trace.tid_main; 5; 5; 5; Trace.tid_main ] lanes;
  Alcotest.(check bool) "request id travels with the capture" true
    (List.map (fun e -> e.Trace.req) events
    = [ None; Some "r9"; Some "r9"; Some "r9"; None ]);
  (* per-lane validation accepts the interleaved stream *)
  (match Trace_export.validate events with
  | Ok () -> ()
  | Error m -> Alcotest.failf "lanes should validate independently: %s" m);
  (* capture delivers even when the task raises *)
  let got2 = ref [] in
  (try
     Trace.with_capture
       (fun evs -> got2 := evs)
       (fun () ->
         Trace.begin_ "dying";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "capture survives a raise" 1 (List.length !got2)

(* ---------- rolling time-series ---------- *)

module Timeseries = Repair_obs.Timeseries

let synthetic_source () =
  let c = ref 0 and h = Histogram.create () in
  let src =
    {
      Timeseries.counters = (fun () -> [ ("reqs", !c) ]);
      histograms = (fun () -> [ ("lat", h) ]);
      gauges = (fun () -> [ ("depth", float_of_int (!c mod 3)) ]);
    }
  in
  (src, c, h)

let test_timeseries_windows () =
  let src, c, h = synthetic_source () in
  let now = ref 0.0 in
  let ts = Timeseries.create ~windows:4 ~interval_s:1.0 ~clock:(fun () -> !now) src in
  Timeseries.tick ts;
  Alcotest.(check int) "no elapsed, no window" 0 (Timeseries.n_windows ts);
  c := 5;
  Histogram.observe h 0.01;
  now := 1.0;
  Timeseries.tick ts;
  Alcotest.(check int) "first window closed" 1 (Timeseries.n_windows ts);
  Alcotest.(check (float 1e-9)) "rate over one window" 5.0
    (Timeseries.rate ts "reqs");
  Alcotest.(check int) "histogram delta captured" 1
    (Histogram.count (Timeseries.rolling ts "lat"));
  c := 8;
  now := 2.0;
  Timeseries.tick ts;
  Alcotest.(check (float 1e-9)) "rate averages windows" 4.0
    (Timeseries.rate ts "reqs");
  (* a stalled sampler closes ONE wide window, leaving rates unbiased *)
  c := 14;
  now := 5.0;
  Timeseries.tick ts;
  Alcotest.(check int) "stall closes a single window" 3
    (Timeseries.n_windows ts);
  (match List.rev (Timeseries.windows ts) with
  | w :: _ ->
    Alcotest.(check (float 1e-9)) "wide window spans the stall" 3.0
      w.Timeseries.span_s;
    Alcotest.(check bool) "wide window holds the whole delta" true
      (w.Timeseries.counters = [ ("reqs", 6) ])
  | [] -> Alcotest.fail "no windows");
  Alcotest.(check (float 1e-9)) "rate unbiased by the stall" (14.0 /. 5.0)
    (Timeseries.rate ts "reqs");
  (* ring eviction: two more ticks push out the first window *)
  now := 6.0;
  Timeseries.tick ts;
  now := 7.0;
  Timeseries.tick ts;
  Alcotest.(check int) "ring capped at capacity" 4 (Timeseries.n_windows ts);
  Alcotest.(check (float 1e-9)) "span over held windows" 6.0
    (Timeseries.span_total ts);
  Alcotest.(check (float 1e-9)) "rate over held windows only" 1.5
    (Timeseries.rate ts "reqs");
  Alcotest.(check (float 1e-9)) "gauge sampled at last close"
    (float_of_int (14 mod 3))
    (match Timeseries.last_gauge ts "depth" with
    | Some g -> g
    | None -> -1.0)

(* Acceptance (c): two series driven by identical deterministic sources
   and the same fake clock render byte-identical JSON. *)
let test_timeseries_deterministic_json () =
  let drive () =
    let src, c, h = synthetic_source () in
    let now = ref 0.0 in
    let ts =
      Timeseries.create ~windows:8 ~interval_s:0.5 ~clock:(fun () -> !now) src
    in
    List.iter
      (fun (t, n, obs) ->
        c := n;
        List.iter (Histogram.observe h) obs;
        now := t;
        Timeseries.tick ts)
      [ (0.5, 3, [ 0.001; 0.02 ]);
        (1.0, 7, []);
        (2.7, 11, [ 0.3 ]);
        (3.0, 11, []) ];
    Repair_obs.Json.to_string (Timeseries.to_json ts)
  in
  let a = drive () and b = drive () in
  Alcotest.(check string) "byte-identical stats JSON" a b;
  (* and the document reparses *)
  match Json.of_string a with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "stats JSON does not reparse: %s" m

(* ---------- text exposition ---------- *)

module Expo = Repair_obs.Expo

let test_expo_render_and_check () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0.001; 0.2; 50.0 ];
  let text =
    Expo.render
      ~counters:[ ("serve.requests", 12); ("trace.dropped", 0) ]
      ~gauges:[ ("serve.queue depth", 2.5) ]
      ~histograms:[ ("serve.request", h) ]
      ()
  in
  (match Expo.check text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "render output fails its own checker: %s" m);
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter family suffixed _total" true
    (contains "# TYPE repair_serve_requests_total counter");
  Alcotest.(check bool) "gauge name sanitized" true
    (contains "repair_serve_queue_depth 2.5");
  Alcotest.(check bool) "histogram suffixed _seconds" true
    (contains "# TYPE repair_serve_request_seconds histogram");
  Alcotest.(check bool) "mandatory +Inf bucket" true
    (contains "repair_serve_request_seconds_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count series" true
    (contains "repair_serve_request_seconds_count 3");
  (* empty registries render an empty, valid document *)
  match Expo.check (Expo.render ~counters:[] ~gauges:[] ~histograms:[] ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "empty exposition should check: %s" m

let test_expo_check_rejects () =
  let reject label text =
    match Expo.check text with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "checker accepted %s" label
  in
  reject "a sample without a TYPE declaration" "repair_x_total 1\n";
  reject "duplicate TYPE lines"
    "# TYPE repair_x_total counter\n\
     # TYPE repair_x_total counter\n\
     repair_x_total 1\n";
  reject "an unparsable value"
    "# TYPE repair_x_total counter\nrepair_x_total banana\n";
  reject "a histogram without +Inf"
    "# TYPE repair_h_seconds histogram\n\
     repair_h_seconds_bucket{le=\"0.5\"} 1\n\
     repair_h_seconds_sum 0.1\n\
     repair_h_seconds_count 1\n";
  reject "non-cumulative buckets"
    "# TYPE repair_h_seconds histogram\n\
     repair_h_seconds_bucket{le=\"0.5\"} 2\n\
     repair_h_seconds_bucket{le=\"1\"} 1\n\
     repair_h_seconds_bucket{le=\"+Inf\"} 2\n\
     repair_h_seconds_sum 0.1\n\
     repair_h_seconds_count 2\n";
  reject "+Inf disagreeing with _count"
    "# TYPE repair_h_seconds histogram\n\
     repair_h_seconds_bucket{le=\"+Inf\"} 2\n\
     repair_h_seconds_sum 0.1\n\
     repair_h_seconds_count 3\n"

(* ---------- the JSON codec ---------- *)

let sample =
  Json.Obj
    [ ("s", Json.String "a \"quoted\"\nline\twith \\ specials");
      ("i", Json.Int (-42));
      ("f", Json.Float 2.5);
      ("whole", Json.Float 12.0);
      ("b", Json.Bool true);
      ("nothing", Json.Null);
      ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample) with
      | Ok v -> Alcotest.(check bool) "round trip" true (v = sample)
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    [ false; true ]

let test_json_float_literals () =
  Alcotest.(check string) "whole floats keep the point" "12.0"
    (Json.to_string (Json.Float 12.0));
  Alcotest.(check string) "ints stay ints" "12" (Json.to_string (Json.Int 12));
  Alcotest.(check string) "non-finite becomes null" "null"
    (Json.to_string (Json.Float Float.nan))

let test_json_errors () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" text)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated";
      (* a \u escape takes exactly four hex digits *)
      "\"\\u1_23\""; "\"\\u12_3\"";
      (* nesting is bounded, so input depth never becomes stack depth *)
      String.make 513 '[' ^ String.make 513 ']' ];
  Alcotest.(check bool) "512 levels parse" true
    (Result.is_ok (Json.of_string (String.make 512 '[' ^ String.make 512 ']')))

(* \uXXXX decoding: surrogate pairs must combine into one astral-plane
   scalar (proper UTF-8, not CESU-8), and lone halves are malformed. *)
let test_json_surrogate_pairs () =
  let check_decodes escaped utf8 =
    match Json.of_string (Printf.sprintf "\"%s\"" escaped) with
    | Ok (Json.String s) ->
      Alcotest.(check string) (Printf.sprintf "decode %s" escaped) utf8 s
    | Ok _ -> Alcotest.failf "%s: not a string" escaped
    | Error msg -> Alcotest.failf "%s: %s" escaped msg
  in
  (* U+1F600 GRINNING FACE, U+10348 GOTHIC HWAIR, U+1D11E MUSICAL G CLEF *)
  check_decodes "\\ud83d\\ude00" "\xf0\x9f\x98\x80";
  check_decodes "\\uD800\\uDF48" "\xf0\x90\x8d\x88";
  check_decodes "\\uD834\\uDD1E" "\xf0\x9d\x84\x9e";
  check_decodes "x\\ud83d\\ude00y" "x\xf0\x9f\x98\x80y";
  (* BMP escapes still decode to 1-3 byte sequences. *)
  check_decodes "\\u00e9" "\xc3\xa9";
  check_decodes "\\u20ac" "\xe2\x82\xac";
  (* The decoded astral character round-trips as raw UTF-8 bytes. *)
  let v = Json.String "\xf0\x9f\x98\x80 clef \xf0\x9d\x84\x9e" in
  Alcotest.(check bool) "astral round trip" true
    (Json.of_string (Json.to_string v) = Ok v
    && Json.of_string (Json.to_string ~pretty:true v) = Ok v)

let test_json_unpaired_surrogates () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted unpaired surrogate %S" text)
    [ "\"\\ud83d\"" (* lone high *);
      "\"\\ude00\"" (* lone low *);
      "\"\\ud83d\\ud83d\"" (* high followed by high *);
      "\"\\ud83dx\"" (* high followed by a plain char *);
      "\"\\ud83d\\n\"" (* high followed by a non-u escape *);
      "\"\\ud83d\\u00e9\"" (* high followed by a BMP escape *);
      "\"\\ud83d" (* truncated input after the high half *) ]

let test_json_accessors () =
  let v = Json.Obj [ ("x", Json.Int 3); ("y", Json.Float 1.5) ] in
  Alcotest.(check (option int)) "int member" (Some 3)
    (Option.bind (Json.member "x" v) Json.int_value);
  Alcotest.(check bool) "int coerces to float" true
    (Option.bind (Json.member "x" v) Json.float_value = Some 3.0);
  Alcotest.(check bool) "missing member" true (Json.member "z" v = None)

(* Dyadic floats and printable strings round trip exactly. *)
let gen_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000) 1000);
        map (fun i -> Json.Float (float_of_int i /. 4.0)) (int_range (-1000) 1000);
        map (fun s -> Json.String s) (small_string ~gen:printable) ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      oneof
        [ leaf;
          map (fun l -> Json.List l) (small_list (tree (depth - 1)));
          map
            (fun kvs ->
              (* Duplicate keys would defeat the assoc-based comparison. *)
              Json.Obj
                (List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs))
            (small_list (pair (small_string ~gen:printable) (tree (depth - 1)))) ]
  in
  tree 3

let qcheck_json_roundtrip =
  Helpers.qcheck ~count:500 ~print:(fun v -> Json.to_string ~pretty:true v)
    "random documents round trip" gen_json (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string ~pretty:true v) = Ok v)

let () =
  Alcotest.run "obs"
    [ ( "counters",
        [ Alcotest.test_case "monotone" `Quick test_counters_monotone;
          Alcotest.test_case "negative rejected" `Quick
            test_counter_negative_rejected;
          Alcotest.test_case "default zero" `Quick test_counter_default_zero;
          Alcotest.test_case "sorted" `Quick test_counters_sorted ] );
      ( "spans",
        [ Alcotest.test_case "nesting sums to parent" `Quick
            test_nested_spans_sum_to_parent;
          Alcotest.test_case "recorded on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "path lookup" `Quick test_span_total_path;
          Alcotest.test_case "disabled is free" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "reset is pristine" `Quick test_reset_pristine ] );
      ("transparency", [ qcheck_same_repair; qcheck_same_repair_traced ]);
      ( "trace",
        [ Alcotest.test_case "spans balanced" `Quick test_trace_spans_balanced;
          Alcotest.test_case "balanced on raise" `Quick
            test_trace_balanced_on_raise;
          Alcotest.test_case "overflow drops oldest" `Quick
            test_trace_overflow_drops_oldest;
          Alcotest.test_case "monotone" `Quick test_trace_monotone;
          Alcotest.test_case "disabled is free" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "wrap with mixed kinds" `Quick
            test_trace_wrap_mixed;
          Alcotest.test_case "request context" `Quick
            test_trace_request_context;
          Alcotest.test_case "capture and inject" `Quick
            test_trace_capture_inject ] );
      ( "histograms",
        [ Alcotest.test_case "bucket scheme" `Quick test_histogram_buckets;
          Alcotest.test_case "stats" `Quick test_histogram_stats;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "json round trip" `Quick
            test_histogram_json_roundtrip;
          Alcotest.test_case "json rejects mismatch" `Quick
            test_histogram_json_rejects_mismatch;
          Alcotest.test_case "spans feed histograms" `Quick
            test_span_histograms;
          Alcotest.test_case "windowed diff" `Quick test_histogram_diff;
          Alcotest.test_case "empty summary round trip" `Quick
            test_histogram_empty_json ] );
      ( "timeseries",
        [ Alcotest.test_case "windows, rates, stalls, eviction" `Quick
            test_timeseries_windows;
          Alcotest.test_case "deterministic json" `Quick
            test_timeseries_deterministic_json ] );
      ( "exposition",
        [ Alcotest.test_case "render passes check" `Quick
            test_expo_render_and_check;
          Alcotest.test_case "check rejects malformed" `Quick
            test_expo_check_rejects ] );
      ( "chrome export",
        [ Alcotest.test_case "round trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "dropped preserved" `Quick
            test_chrome_dropped_preserved;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "hotspots" `Quick test_hotspots ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float literals" `Quick test_json_float_literals;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs;
          Alcotest.test_case "unpaired surrogates" `Quick
            test_json_unpaired_surrogates;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          qcheck_json_roundtrip ] ) ]
