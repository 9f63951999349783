(* Determinism and differential tests for the domain-pool parallelism
   layer (DESIGN §13).

   The hard contract under test: a parallel run is bit-identical to the
   sequential one — repair tables, distances, degraded flags, error
   classes, metrics counters, histogram sample counts, and span counts —
   at every pool width and under any task hand-out order. Timing floats
   (span durations, histogram bucket indices) are wall-clock-dependent
   by nature and are excluded from every comparison here. *)

open Repair_relational
open Repair_fd
module Pool = Repair_par.Pool
module Metrics = Repair_obs.Metrics
module Json = Repair_obs.Json
module Budget = Repair_runtime.Budget
module W = Repair_workload
module Opt_s = Repair_srepair.Opt_s_repair
module Opt_u = Repair_urepair.Opt_u_repair
module S_approx = Repair_srepair.S_approx
module Cg = Repair_srepair.Conflict_graph
module G = Repair_graph.Graph
module Vc = Repair_graph.Vertex_cover
module Driver = Repair_core.Repair.Driver

(* One long-lived pool per width under test; spawning domains per qcheck
   iteration would dominate the suite's runtime. *)
let widths = [ 1; 2; 4; 8 ]

let pools = lazy (List.map (fun w -> (w, Pool.create ~domains:w)) widths)

let pool_of w = List.assoc w (Lazy.force pools)

(* ---------- instance generation (same shape as test_differential) --- *)

type instance = { seed : int; n : int; noise : float }

let print_instance { seed; n; noise } =
  Printf.sprintf "{seed=%d; n=%d; noise=%g}" seed n noise

let gen_instance =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000_000 in
    let* n = int_range 0 24 in
    let* noise = oneofl [ 0.1; 0.25; 0.5 ] in
    return { seed; n; noise })

let build { seed; n; noise } =
  let rng = W.Rng.make seed in
  let schema, d = W.Gen_fd.random rng ~n_attrs:3 ~n_fds:2 ~max_lhs:2 in
  let tbl =
    W.Gen_table.dirty rng schema d
      {
        W.Gen_table.default with
        n;
        noise;
        domain_size = 3;
        weighted = true;
      }
  in
  (d, tbl)

(* ---------- integer-only metrics state ------------------------------ *)

type span_ints = { sname : string; scount : int; schildren : span_ints list }

let rec span_ints (s : Metrics.span) =
  {
    sname = s.name;
    scount = s.count;
    schildren = List.map span_ints s.children;
  }

(* Everything integer-valued in the registry: counter values, per-name
   histogram sample counts, and the span tree with entry counts. The
   merge contract makes all of these equal between a sequential run and
   any parallel run; durations and bucket indices are not compared. *)
let metrics_ints () =
  ( Metrics.counters (),
    List.map
      (fun (name, h) -> (name, Repair_obs.Histogram.count h))
      (Metrics.histograms ()),
    List.map span_ints (Metrics.spans ()) )

let with_fresh_metrics f =
  Metrics.reset ();
  Metrics.enable ();
  let x = f () in
  let ints = metrics_ints () in
  Metrics.disable ();
  Metrics.reset ();
  (x, ints)

(* ---------- comparison helpers -------------------------------------- *)

let graphs_equal g1 g2 =
  G.n_vertices g1 = G.n_vertices g2
  && G.edges g1 = G.edges g2
  && List.for_all
       (fun v -> G.weight g1 v = G.weight g2 v)
       (List.init (G.n_vertices g1) Fun.id)

let cgs_equal c1 c2 =
  graphs_equal (Cg.graph c1) (Cg.graph c2)
  && Cg.n_conflicts c1 = Cg.n_conflicts c2
  && List.for_all
       (fun v -> Cg.id_of_vertex c1 v = Cg.id_of_vertex c2 v)
       (List.init (G.n_vertices (Cg.graph c1)) Fun.id)

(* Bit-identity, so distances and ratios compare with [=], not a
   tolerance. *)
let reports_equal (a : (Driver.report, _) result)
    (b : (Driver.report, _) result) =
  match (a, b) with
  | Ok ra, Ok rb ->
    Table.equal ra.Driver.result rb.Driver.result
    && ra.Driver.distance = rb.Driver.distance
    && ra.Driver.optimal = rb.Driver.optimal
    && ra.Driver.ratio = rb.Driver.ratio
    && ra.Driver.method_used = rb.Driver.method_used
    && ra.Driver.degraded = rb.Driver.degraded
    && ra.Driver.fallbacks = rb.Driver.fallbacks
  | Error ea, Error eb ->
    Repair_runtime.Repair_error.class_name ea
    = Repair_runtime.Repair_error.class_name eb
  | _ -> false

let random_perm st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------- pool unit tests ----------------------------------------- *)

let test_pool_rejects_zero () =
  Alcotest.check_raises "domains < 1" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

let test_pool_exception_does_not_wedge () =
  let pool = pool_of 4 in
  (match Pool.run pool [| (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) |] with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure m -> Alcotest.(check string) "task error surfaces" "boom" m);
  (* The batch ran to completion and the pool is still usable. *)
  let r = Pool.run pool [| (fun () -> 10); (fun () -> 20); (fun () -> 30) |] in
  Alcotest.(check (array int)) "pool survives a task exception" [| 10; 20; 30 |] r

let test_pool_lowest_index_exception () =
  let pool = pool_of 4 in
  match
    Pool.run pool
      [| (fun () -> 0);
         (fun () -> failwith "first");
         (fun () -> 2);
         (fun () -> failwith "second") |]
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m ->
    Alcotest.(check string) "lowest-index exception wins" "first" m

let test_pool_reuse () =
  let pool = pool_of 4 in
  for round = 1 to 20 do
    let n = 1 + (round mod 7) in
    let r = Pool.run pool (Array.init n (fun i () -> i * i)) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init n (fun i -> i * i))
      r
  done

let test_pool_nested_guard () =
  let pool = pool_of 4 in
  let inner () = Pool.run pool (Array.init 4 (fun i () -> (i, Pool.in_task ()))) in
  let outer = Pool.run pool (Array.init 3 (fun _ () -> inner ())) in
  Array.iter
    (fun results ->
      Array.iteri
        (fun i (j, nested_in_task) ->
          Alcotest.(check int) "inner result" i j;
          Alcotest.(check bool) "inline fallback stays in-task" true
            nested_in_task)
        results)
    outer;
  Alcotest.(check bool) "in_task is false outside" false (Pool.in_task ())

let test_pool_schedule_validation () =
  let pool = pool_of 4 in
  let tasks = Array.init 3 (fun i () -> i) in
  (try
     ignore (Pool.run ~schedule:[| 0; 0; 1 |] pool tasks);
     Alcotest.fail "duplicate schedule accepted"
   with Invalid_argument _ -> ());
  let r = Pool.run ~schedule:[| 2; 0; 1 |] pool tasks in
  Alcotest.(check (array int)) "permuted hand-out, index-ordered results"
    [| 0; 1; 2 |] r

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  Alcotest.(check (array int)) "runs" [| 7; 8 |]
    (Pool.run pool [| (fun () -> 7); (fun () -> 8) |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Multi-task batch: single-task batches always run inline and never
     consult the pool state. *)
  (try
     ignore (Pool.run pool [| (fun () -> 1); (fun () -> 2) |]);
     Alcotest.fail "run after shutdown accepted"
   with Invalid_argument _ -> ())

let test_pool_capture_merge_point () =
  (* run_captured defers the merge: counters recorded by a task are
     invisible until its capture is merged, then land exactly once. *)
  Metrics.reset ();
  Metrics.enable ();
  let pool = pool_of 4 in
  let results =
    Pool.run_captured pool
      (Array.init 4 (fun i () ->
           Metrics.incr ~by:(i + 1) "par.capture-test";
           i))
  in
  Alcotest.(check int) "nothing merged yet" 0 (Metrics.counter "par.capture-test");
  Array.iter
    (fun (outcome, cap) ->
      (match outcome with
      | Ok _ -> ()
      | Error e -> raise e);
      Metrics.merge cap)
    results;
  Alcotest.(check int) "merge lands the exact total" 10
    (Metrics.counter "par.capture-test");
  Metrics.disable ();
  Metrics.reset ()

let test_pool_trace_lanes () =
  (* Pool.run gives each task's trace events a lane of its own: worker
     spans are captured domain-locally, then injected into the owner's
     ring on tid 2+i with the task's request context intact — so a
     worker-domain span carries a wire request id end to end. *)
  let module Trace = Repair_obs.Trace in
  let module Trace_export = Repair_obs.Trace_export in
  Metrics.reset ();
  Metrics.enable ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  let pool = pool_of 4 in
  Trace.begin_ "batch";
  let r =
    Pool.run pool
      (Array.init 6 (fun i () ->
           Trace.with_request
             (Printf.sprintf "req-%d" i)
             (fun () -> Metrics.with_span "par.task" (fun () -> i * i))))
  in
  Trace.end_ "batch";
  Alcotest.(check bool) "results unchanged by capture" true
    (r = Array.init 6 (fun i -> i * i));
  let events = Trace.events () in
  for i = 0 to 5 do
    let lane = List.filter (fun e -> e.Trace.tid = 2 + i) events in
    Alcotest.(check bool) (Printf.sprintf "lane %d has events" (2 + i)) true
      (lane <> []);
    Alcotest.(check bool)
      (Printf.sprintf "lane %d carries its request id" (2 + i))
      true
      (List.for_all
         (fun e -> e.Trace.req = Some (Printf.sprintf "req-%d" i))
         lane)
  done;
  Alcotest.(check bool) "owner lane still present" true
    (List.exists (fun e -> e.Trace.tid = Trace.tid_main) events);
  (* per-lane validation and the Chrome round trip both hold *)
  (match Trace_export.validate events with
  | Ok () -> ()
  | Error m -> Alcotest.failf "per-lane validation failed: %s" m);
  match Trace_export.of_chrome (Trace_export.to_chrome events ~dropped:0) with
  | Error m -> Alcotest.failf "chrome round trip failed: %s" m
  | Ok (events', _) ->
    Alcotest.(check bool) "request ids survive the chrome export" true
      (List.map (fun e -> (e.Trace.tid, e.Trace.req)) events
      = List.map (fun e -> (e.Trace.tid, e.Trace.req)) events')

let test_budget_absorb () =
  let b = Budget.unlimited () in
  Budget.tick b;
  Budget.tick b;
  Budget.absorb b ~steps:5;
  Alcotest.(check int) "absorb sums into steps" 7 (Budget.steps b)

(* ---------- differential: the fan-out decision ---------------------- *)

(* [Table.fold_budgeted] against the inline fold it must equal. Each
   item ticks its budget [x mod 7] times, and the combine conses, so a
   reordered merge or a lost step shows. *)
let gen_items = QCheck2.Gen.(list_size (int_range 0 12) (int_range 0 1000))

let fold_budgeted_matches width =
  Helpers.qcheck ~count:60 ~print:QCheck2.Print.(list int)
    (Printf.sprintf "fold_budgeted at %d domains = the inline fold" width)
    gen_items
    (fun xs ->
      let f b x =
        for _ = 1 to x mod 7 do
          Budget.tick b
        done;
        (x * 31) + 1
      in
      let run runner =
        let b = Budget.unlimited () in
        let r = Table.fold_budgeted runner b f (fun acc r -> r :: acc) [] xs in
        (r, Budget.steps b)
      in
      run Table.seq_runner = run (Pool.runner (pool_of width)))

let fold_budgeted_raises_first =
  Helpers.qcheck ~count:60 ~print:QCheck2.Print.(list int)
    "fold_budgeted raises the inline fold's exception" gen_items
    (fun xs ->
      let f _ x = if x mod 5 = 0 then failwith (string_of_int x) else x in
      let run runner =
        match Table.fold_budgeted runner (Budget.unlimited ()) f ( + ) 0 xs with
        | r -> Ok r
        | exception Failure m -> Error m
      in
      run Table.seq_runner = run (Pool.runner (pool_of 4)))

(* ---------- differential: conflict graph ---------------------------- *)

let conflict_graph_par_matches width =
  Helpers.qcheck ~count:60 ~print:print_instance
    (Printf.sprintf "Conflict_graph.build_par = build at %d domains" width)
    gen_instance
    (fun inst ->
      let d, tbl = build inst in
      let runner = Pool.runner (pool_of width) in
      cgs_equal (Cg.build d tbl) (Cg.build ~runner d tbl))

(* ---------- differential: s-repair / u-repair ----------------------- *)

let s_repair_par_matches width =
  Helpers.qcheck ~count:40 ~print:print_instance
    (Printf.sprintf "s-repair at %d domains is bit-identical" width)
    gen_instance
    (fun inst ->
      let d, tbl = build inst in
      let seq, seq_ints =
        with_fresh_metrics (fun () -> Driver.s_repair_result d tbl)
      in
      let par, par_ints =
        with_fresh_metrics (fun () ->
            Driver.s_repair_result ~pool:(pool_of width) d tbl)
      in
      reports_equal seq par && seq_ints = par_ints)

let u_repair_par_matches width =
  Helpers.qcheck ~count:40 ~print:print_instance
    (Printf.sprintf "u-repair at %d domains is bit-identical" width)
    gen_instance
    (fun inst ->
      let d, tbl = build inst in
      let seq, seq_ints =
        with_fresh_metrics (fun () -> Driver.u_repair_result d tbl)
      in
      let par, par_ints =
        with_fresh_metrics (fun () ->
            Driver.u_repair_result ~pool:(pool_of width) d tbl)
      in
      reports_equal seq par && seq_ints = par_ints)

let limited_budget_takes_sequential_path =
  Helpers.qcheck ~count:40 ~print:print_instance
    "limited budgets: parallel = sequential including exhaustion points"
    gen_instance
    (fun inst ->
      let d, tbl = build inst in
      let st = Random.State.make [| inst.seed; 13 |] in
      let max_steps = 1 + Random.State.int st 30 in
      let run pool =
        Driver.s_repair_result ?pool
          ~budget:(Budget.create ~max_steps ())
          ~on_budget:`Fail d tbl
      in
      reports_equal (run None) (run (Some (pool_of 4))))

(* The 3-attribute instances above never split into two
   attribute-disjoint components, so Opt_u_repair's component fan-out
   needs its own instances: 5-attribute Δs with two tractable
   components (common lhs on both sides, or a two-way unary pair next
   to a common-lhs component). *)
let two_component_fds =
  [ "A -> B; C -> D"; "A -> B; C -> D E"; "A -> B; B -> A; C -> D" ]

let gen_two_component =
  QCheck2.Gen.(pair (int_range 0 (List.length two_component_fds - 1)) gen_instance)

let print_two_component (k, inst) =
  Printf.sprintf "%s on %s" (List.nth two_component_fds k) (print_instance inst)

let build_two_component (k, { seed; n; noise }) =
  let schema = Schema.make "Two" [ "A"; "B"; "C"; "D"; "E" ] in
  let d = Fd_set.parse (List.nth two_component_fds k) in
  let rng = W.Rng.make seed in
  let tbl =
    W.Gen_table.dirty rng schema d
      { W.Gen_table.default with n; noise; domain_size = 3; weighted = true }
  in
  (d, tbl)

let u_repair_components_match width =
  Helpers.qcheck ~count:40 ~print:print_two_component
    (Printf.sprintf "u-repair components at %d domains are bit-identical"
       width)
    gen_two_component
    (fun inst ->
      let d, tbl = build_two_component inst in
      let seq, seq_ints =
        with_fresh_metrics (fun () -> Driver.u_repair_result d tbl)
      in
      let par, par_ints =
        with_fresh_metrics (fun () ->
            Driver.u_repair_result ~pool:(pool_of width) d tbl)
      in
      reports_equal seq par && seq_ints = par_ints)

let u_repair_components_limited_budget =
  Helpers.qcheck ~count:40 ~print:print_two_component
    "limited budgets: u-repair components = sequential" gen_two_component
    (fun ((_, inst) as two) ->
      let d, tbl = build_two_component two in
      let st = Random.State.make [| inst.seed; 17 |] in
      let max_steps = 1 + Random.State.int st 30 in
      let run pool =
        Driver.u_repair_result ?pool
          ~budget:(Budget.create ~max_steps ())
          ~on_budget:`Fail d tbl
      in
      reports_equal (run None) (run (Some (pool_of 4))))

(* ---------- determinism stress -------------------------------------- *)

(* A mid-size tractable instance (common lhs A → B, C) with enough
   A-blocks to keep every domain busy. *)
let stress_instance () =
  let schema = Schema.make "Stress" [ "A"; "B"; "C" ] in
  let d = Fd_set.parse "A -> B; A -> C" in
  let rng = W.Rng.make 4242 in
  let tbl =
    Table.of_list schema
      (List.init 240 (fun i ->
           ( i + 1,
             float_of_int (1 + W.Rng.in_range rng 0 4),
             Tuple.make
               [ Value.int (W.Rng.in_range rng 1 24);
                 Value.int (W.Rng.in_range rng 1 3);
                 Value.int (W.Rng.in_range rng 1 3) ] )))
  in
  (d, tbl)

let report_bytes (r : Driver.report) =
  Json.to_string
    (Json.Obj
       [ ("distance", Json.Float r.Driver.distance);
         ("optimal", Json.Bool r.Driver.optimal);
         ("ratio", Json.Float r.Driver.ratio);
         ("method", Json.String r.Driver.method_used);
         ("degraded", Json.Bool r.Driver.degraded);
         ( "fallbacks",
           Json.List (List.map (fun f -> Json.String f) r.Driver.fallbacks) );
         ("table", Json.String (Csv_io.to_string r.Driver.result)) ])

(* The scheduler-perturbation hook: every batch is handed out in a fresh
   random order, and the advertised width (hence the default chunk
   count of the grouping passes) is re-rolled per batch. *)
let perturbed_runner pool st =
  {
    Table.run =
      (fun fns ->
        let n = Array.length fns in
        Pool.run ~schedule:(random_perm st n) pool fns);
    width = 1 + Random.State.int st 8;
  }

let test_determinism_stress () =
  let d, tbl = stress_instance () in
  let reference =
    match Driver.s_repair_result d tbl with
    | Ok r -> report_bytes r
    | Error _ -> Alcotest.fail "stress instance must be tractable"
  in
  let pool = pool_of 4 in
  let st = Random.State.make [| 0xDEAD |] in
  for i = 1 to 50 do
    let runner = perturbed_runner pool st in
    match Opt_s.run ~runner d tbl with
    | Error _ -> Alcotest.fail "parallel run refused a tractable instance"
    | Ok s ->
      let r =
        {
          Driver.result = s;
          distance = Table.dist_sub s tbl;
          optimal = true;
          ratio = 1.0;
          method_used = "OptSRepair (Algorithm 1)";
          degraded = false;
          fallbacks = [];
        }
      in
      Alcotest.(check string)
        (Printf.sprintf "iteration %d is byte-identical" i)
        reference (report_bytes r)
  done

let test_approx_par_stress () =
  let d, tbl = stress_instance () in
  let reference = Csv_io.to_string (S_approx.approx2 d tbl) in
  let pool = pool_of 4 in
  let st = Random.State.make [| 0xBEEF |] in
  for i = 1 to 20 do
    let runner = perturbed_runner pool st in
    Alcotest.(check string)
      (Printf.sprintf "approx2_par iteration %d" i)
      reference
      (Csv_io.to_string (S_approx.approx2 ~runner d tbl))
  done

(* ---------- domain-safety hammers ----------------------------------- *)

(* Each regression pins a singleton that was (or would be) unsafe under
   domains: metrics registries are domain-local, the interner pool is
   mutex-guarded, budget tick-name tables are domain-local, and the
   vertex-cover heuristics only touch per-call state. *)

let spawn_pair f =
  let a = Domain.spawn f and b = Domain.spawn f in
  (Domain.join a, Domain.join b)

let test_hammer_metrics () =
  Metrics.reset ();
  Metrics.enable ();
  let worker () =
    for _ = 1 to 10_000 do
      Metrics.incr "hammer.metrics"
    done;
    Metrics.with_span "hammer.span" (fun () -> ());
    Metrics.counter "hammer.metrics"
  in
  let c1, c2 = spawn_pair worker in
  Alcotest.(check int) "domain 1 sees its own registry" 10_000 c1;
  Alcotest.(check int) "domain 2 sees its own registry" 10_000 c2;
  Alcotest.(check int) "the spawning domain's registry is untouched" 0
    (Metrics.counter "hammer.metrics");
  Metrics.disable ();
  Metrics.reset ()

(* Two domains intern 4,000 distinct values (2,000 ints, some through
   [intern_int], and 2,000 strings), each in its own order, so the pool
   grows past 16 codes eight times under contention. *)
let test_hammer_interner () =
  let p = Interner.create () in
  let distinct = 4000 in
  let vals off =
    List.init (2 * distinct) (fun k ->
        let i = (k + off) mod distinct in
        if i mod 2 = 0 then `Int (i / 2) else `Str (string_of_int (i / 2)))
  in
  let worker off () =
    List.iteri
      (fun k v ->
        match v with
        | `Int i when k mod 3 = 0 -> ignore (Interner.intern_int p i)
        | `Int i -> ignore (Interner.intern p (Value.int i))
        | `Str s -> ignore (Interner.intern p (Value.str s)))
      (vals off)
  in
  let a = Domain.spawn (worker 0) and b = Domain.spawn (worker 1500) in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no duplicate codes" distinct (Interner.size p);
  let seen = Array.make distinct false in
  List.iter
    (fun v ->
      let v = match v with `Int i -> Value.int i | `Str s -> Value.str s in
      match Interner.code_opt p v with
      | None -> Alcotest.fail "interned value lost"
      | Some c ->
        seen.(c) <- true;
        Alcotest.(check bool) "code round-trips" true
          (Value.equal (Interner.value p c) v))
    (vals 0);
  Alcotest.(check bool) "codes are dense" true (Array.for_all Fun.id seen)

let test_hammer_budget_ticks () =
  let worker () =
    let b = Budget.create ~max_steps:100_000 () in
    for _ = 1 to 10_000 do
      Budget.tick ~phase:"hammer" b
    done;
    Budget.steps b
  in
  let s1, s2 = spawn_pair worker in
  Alcotest.(check int) "domain 1 tick count" 10_000 s1;
  Alcotest.(check int) "domain 2 tick count" 10_000 s2

let test_hammer_vertex_cover () =
  let st = Random.State.make [| 0xC0DE |] in
  let n = 60 in
  let edges =
    List.init 240 (fun _ ->
        let u = Random.State.int st n and v = Random.State.int st n in
        if u = v then (u, (v + 1) mod n) else (u, v))
  in
  let g =
    G.of_edges ~weights:(Array.init n (fun i -> float_of_int (1 + (i mod 5)))) n
      edges
  in
  let expected_approx = Vc.approx2 g and expected_greedy = Vc.greedy g in
  let worker () = (Vc.approx2 g, Vc.greedy g) in
  let (a1, g1), (a2, g2) = spawn_pair worker in
  Alcotest.(check (list int)) "approx2 domain 1" expected_approx a1;
  Alcotest.(check (list int)) "approx2 domain 2" expected_approx a2;
  Alcotest.(check (list int)) "greedy domain 1" expected_greedy g1;
  Alcotest.(check (list int)) "greedy domain 2" expected_greedy g2

let test_hammer_trace_single_writer () =
  let module T = Repair_obs.Trace in
  T.enable ~capacity:4096 ();
  T.begin_ "owner";
  let worker () =
    for i = 1 to 1_000 do
      T.instant (Printf.sprintf "worker-%d" i)
    done
  in
  let a = Domain.spawn worker and b = Domain.spawn worker in
  Domain.join a;
  Domain.join b;
  T.end_ "owner";
  let events = T.events () in
  Alcotest.(check int) "only the owning domain's events are recorded" 2
    (List.length events);
  T.disable ();
  T.reset ()

let test_hammer_fault_single_writer () =
  let module Fault = Repair_runtime.Fault in
  Fault.disarm ();
  Fault.arm ~phase:"hammer" ~at:4 Fault.Fail;
  (* Worker domains reach the hook both through Budget.tick and by
     calling it directly: neither may count against, or fire, the
     owner's fault — the guard lives inside on_checkpoint itself. *)
  let worker () =
    let b = Budget.create ~max_steps:1_000 () in
    for _ = 1 to 3 do
      Budget.tick ~phase:"hammer" b;
      Fault.on_checkpoint ~phase:"hammer" ~elapsed:0.0 ~steps:1
    done
  in
  let ((), ()) = spawn_pair worker in
  Alcotest.(check bool) "fault still armed after worker checkpoints" true
    (Fault.armed ());
  Alcotest.(check int) "worker checkpoints did not count" 0
    (Fault.checkpoints ());
  (* the owner's own ticks still count and fire at the armed trigger *)
  let b = Budget.create ~max_steps:1_000 () in
  for _ = 1 to 3 do
    Budget.tick ~phase:"hammer" b
  done;
  Alcotest.(check int) "owner checkpoints counted" 3 (Fault.checkpoints ());
  Alcotest.(check bool) "fourth owner tick fires" true
    (try
       Budget.tick ~phase:"hammer" b;
       false
     with
    | Repair_runtime.Repair_error.Error
        (Repair_runtime.Repair_error.Fault_injected _) -> true);
  Alcotest.(check bool) "one-shot: disarmed after firing" false (Fault.armed ());
  Alcotest.(check int) "one-shot: counter reset after firing" 0
    (Fault.checkpoints ())

(* ---------- suite ---------------------------------------------------- *)

let () =
  let unit name f = Alcotest.test_case name `Quick f in
  Alcotest.run "par"
    [ ( "pool",
        [ unit "create rejects domains < 1" test_pool_rejects_zero;
          unit "task exception does not wedge the pool"
            test_pool_exception_does_not_wedge;
          unit "lowest-index exception re-raises"
            test_pool_lowest_index_exception;
          unit "pool reuse across batches" test_pool_reuse;
          unit "nested parallelism runs inline" test_pool_nested_guard;
          unit "schedule is validated and result-neutral"
            test_pool_schedule_validation;
          unit "shutdown is idempotent and final"
            test_pool_shutdown_idempotent;
          unit "run_captured defers the merge" test_pool_capture_merge_point;
          unit "worker trace events get per-task lanes" test_pool_trace_lanes;
          unit "Budget.absorb sums steps" test_budget_absorb ] );
      ( "differential",
        List.map fold_budgeted_matches widths
        @ [ fold_budgeted_raises_first ]
        @ List.map conflict_graph_par_matches widths
        @ List.map s_repair_par_matches widths
        @ List.map u_repair_par_matches widths
        @ [ limited_budget_takes_sequential_path ]
        @ List.map u_repair_components_match widths
        @ [ u_repair_components_limited_budget ] );
      ( "determinism",
        [ unit "50 perturbed runs, byte-identical reports"
            test_determinism_stress;
          unit "perturbed approx2_par is byte-stable" test_approx_par_stress ] );
      ( "hammer",
        [ unit "metrics registries are domain-local" test_hammer_metrics;
          unit "interner pool survives concurrent interning"
            test_hammer_interner;
          unit "budget tick names are domain-local" test_hammer_budget_ticks;
          unit "vertex-cover heuristics are reentrant across domains"
            test_hammer_vertex_cover;
          unit "trace is single-writer" test_hammer_trace_single_writer;
          unit "fault injector is single-writer"
            test_hammer_fault_single_writer ] ) ]
