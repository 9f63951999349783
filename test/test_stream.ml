(* Differential and unit tests for the incremental streaming layer
   (DESIGN §16).

   The hard contract under test: after any tape of accepted deltas, a
   session summary is byte-identical to a from-scratch driver run on the
   materialized table — result table, distance, method, and the integer
   metrics state modulo the session's own [stream.*] counters — at every
   pool width the cold side runs under. Timing floats are wall-clock
   noise and are excluded, exactly as in test_par. *)

module R = Repair_core.Repair
module Ss = R.Stream.Session
module Delta = R.Stream.Delta
module Driver = R.Driver
module Srepair = R.Srepair
module Pool = Repair_par.Pool
module Metrics = Repair_obs.Metrics
module W = Repair_workload
open Repair_relational
open Repair_fd

let widths = [ 1; 2; 4; 8 ]
let pools = lazy (List.map (fun w -> (w, Pool.create ~domains:w)) widths)
let pool_of w = List.assoc w (Lazy.force pools)

(* ---------- instance + tape generation ------------------------------ *)

type instance = { seed : int; n : int; noise : float; ticks : int }

let print_instance { seed; n; noise; ticks } =
  Printf.sprintf "{seed=%d; n=%d; noise=%g; ticks=%d}" seed n noise ticks

(* About a quarter of the instances start past S_exact.size_limit, so
   hard summaries also take the approximation rung. *)
let gen_instance =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000_000 in
    let* n = frequency [ (3, int_range 0 20); (1, int_range 65 150) ] in
    let* noise = oneofl [ 0.1; 0.25; 0.5 ] in
    let* ticks = int_range 1 10 in
    return { seed; n; noise; ticks })

let build { seed; n; noise; _ } =
  let rng = W.Rng.make seed in
  let schema, d = W.Gen_fd.random rng ~n_attrs:3 ~n_fds:2 ~max_lhs:2 in
  let tbl =
    W.Gen_table.dirty rng schema d
      { W.Gen_table.default with n; noise; domain_size = 3; weighted = true }
  in
  (rng, schema, d, tbl)

(* A tape of deltas the session is guaranteed to accept: inserts use
   strictly increasing fresh ids, deletes only name live ids. *)
let random_tape rng schema tbl ticks =
  let next_id = ref (Table.fold (fun i _ _ acc -> max i acc) tbl 0) in
  let live = ref (Table.ids tbl) in
  List.init ticks (fun _ ->
      if !live <> [] && W.Rng.int rng 3 = 0 then begin
        let id = W.Rng.pick rng !live in
        live := List.filter (fun x -> x <> id) !live;
        Delta.Delete { id }
      end
      else begin
        incr next_id;
        live := !next_id :: !live;
        Delta.Insert
          {
            id = Some !next_id;
            weight = float_of_int (1 + W.Rng.int rng 3);
            values =
              List.init (Schema.arity schema) (fun _ ->
                  Value.int (1 + W.Rng.int rng 3));
          }
      end)

(* ---------- integer-only metrics state (test_par's idiom) ----------- *)

type span_ints = { sname : string; scount : int; schildren : span_ints list }

let rec span_ints (s : Metrics.span) =
  {
    sname = s.name;
    scount = s.count;
    schildren = List.map span_ints s.children;
  }

(* The session's own accounting is the one permitted divergence: the
   [stream.*] counters (ticks, dirty blocks, block-cache traffic) have
   no cold-side counterpart and are filtered before comparing. *)
let stream_counter name =
  String.length name >= 7 && String.sub name 0 7 = "stream."

let metrics_ints () =
  ( List.filter (fun (name, _) -> not (stream_counter name)) (Metrics.counters ()),
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

let summary_matches_cold (s : Ss.report) = function
  | Error _ -> false
  | Ok (c : Driver.report) ->
    Table.equal s.Ss.result c.Driver.result
    && s.Ss.distance = c.Driver.distance
    && s.Ss.optimal = c.Driver.optimal
    && s.Ss.ratio = c.Driver.ratio
    && s.Ss.method_used = c.Driver.method_used
    && (not c.Driver.degraded)
    && c.Driver.fallbacks = []

(* ---------- differential: summary = cold run, all pool widths ------- *)

let stream_matches_cold width =
  Helpers.qcheck ~count:60 ~print:print_instance
    (Printf.sprintf "summary = cold driver run at %d domains" width)
    gen_instance
    (fun inst ->
      let rng, schema, d, tbl = build inst in
      let session = Ss.create d tbl in
      let tape = random_tape rng schema tbl inst.ticks in
      (* Metrics stay enabled across the whole session lifetime (the
         mli's caveat): block results captured at one summary replay at
         the next. Two summaries per tape — the first solves its blocks
         fresh, the second mixes cached replays with dirty re-solves. *)
      let half = List.length tape / 2 in
      List.iteri (fun k delta -> if k < half then Ss.tick session delta) tape;
      let s1, s1_ints = with_fresh_metrics (fun () -> Ss.summary session) in
      let m1 = Ss.materialized session in
      let c1, c1_ints =
        with_fresh_metrics (fun () ->
            Driver.s_repair_result ~pool:(pool_of width) d m1)
      in
      List.iteri (fun k delta -> if k >= half then Ss.tick session delta) tape;
      let s2, s2_ints = with_fresh_metrics (fun () -> Ss.summary session) in
      let m2 = Ss.materialized session in
      let c2, c2_ints =
        with_fresh_metrics (fun () ->
            Driver.s_repair_result ~pool:(pool_of width) d m2)
      in
      summary_matches_cold s1 c1
      && s1_ints = c1_ints
      && summary_matches_cold s2 c2
      && s2_ints = c2_ints)

(* ---------- block-cache staleness ----------------------------------- *)

let mk values = Tuple.make (List.map (fun v -> Value.int v) values)

let staleness_schema = Schema.make "S" [ "A"; "B" ]
let staleness_fds = Fd_set.parse "A -> B"

(* Two A-groups; id 3 is the heavyweight consensus winner of group A=1.
   Deleting it must change that block's cache key (member-id slice), so
   the next summary re-solves the block and picks a new winner — a stale
   cached entry would keep id 3 in the repair. *)
let staleness_table () =
  Table.of_list staleness_schema
    [ (1, 1.0, mk [ 1; 1 ]);
      (2, 1.0, mk [ 1; 2 ]);
      (3, 5.0, mk [ 1; 1 ]);
      (4, 1.0, mk [ 2; 1 ]);
      (5, 1.0, mk [ 2; 2 ]) ]

let check_against_cold session =
  let s = Ss.summary session in
  let cold = Driver.s_repair_result staleness_fds (Ss.materialized session) in
  Alcotest.(check bool) "summary = cold driver run" true
    (summary_matches_cold s cold);
  s

let test_block_cache_staleness () =
  let session = Ss.create staleness_fds (staleness_table ()) in
  let s0 = check_against_cold session in
  Alcotest.(check bool) "winner present before the delete" true
    (Table.mem s0.Ss.result 3);
  Ss.tick session (Delta.Delete { id = 3 });
  let s1 = check_against_cold session in
  Alcotest.(check bool) "deleted winner never served stale" false
    (Table.mem s1.Ss.result 3);
  let stats = Ss.stats session in
  Alcotest.(check bool) "untouched block came from the cache" true
    (stats.Ss.cache.hits >= 1);
  (* An insert undone by a delete restores the exact member-id slice, so
     the old cache entry is legitimately valid again: the third summary
     runs on cache hits alone. *)
  Ss.tick session
    (Delta.Insert { id = Some 6; weight = 1.0; values = [ Value.int 2; Value.int 3 ] });
  Ss.tick session (Delta.Delete { id = 6 });
  let hits_before = (Ss.stats session).Ss.cache.hits in
  let misses_before = (Ss.stats session).Ss.cache.misses in
  ignore (check_against_cold session);
  let stats = Ss.stats session in
  Alcotest.(check int) "no fresh solves after undo" misses_before
    stats.Ss.cache.misses;
  Alcotest.(check bool) "undone slice re-hits its old entry" true
    (stats.Ss.cache.hits > hits_before)

(* ---------- driver-ladder parity ------------------------------------ *)

(* Session and driver share the Auto-ladder constants of lib/srepair.
   Pin them behaviorally: on either side of the exact-size limit, a hard
   instance must report the same method the cold driver picks, and the
   polynomial method string must match too. *)
let test_ladder_parity () =
  let schema = W.Datasets.r3_schema in
  let hard = W.Datasets.delta_a_to_b_to_c in
  let mk3 a b c = Tuple.make [ Value.int a; Value.int b; Value.int c ] in
  (* Distinct A and B values keep the instance consistent — the exact
     rung is the exponential baseline, so its conflict graph must stay
     tiny for the test to terminate; the ladder picks its rung on table
     size alone. *)
  let rows k = List.init k (fun i -> (i + 1, 1.0, mk3 i i i)) in
  let at_limit = Table.of_list schema (rows Srepair.S_exact.size_limit) in
  let session = Ss.create hard at_limit in
  let s = Ss.summary session in
  Alcotest.(check string) "exact method at the size limit"
    Srepair.S_exact.method_name s.Ss.method_used;
  Alcotest.(check bool) "cold run agrees at the limit" true
    (summary_matches_cold s (Driver.s_repair_result hard at_limit));
  Ss.tick session
    (Delta.Insert
       {
         id = Some (Srepair.S_exact.size_limit + 1);
         weight = 1.0;
         values = [ Value.int 0; Value.int 1; Value.int 0 ];
       });
  let s = Ss.summary session in
  Alcotest.(check string) "approx method one row past the limit"
    Srepair.S_approx.method_name s.Ss.method_used;
  Alcotest.(check bool) "cold run agrees past the limit" true
    (summary_matches_cold s
       (Driver.s_repair_result hard (Ss.materialized session)));
  let chain = Table.of_list schema (rows 8) in
  let poly = Ss.summary (Ss.create (Fd_set.parse "A -> B") chain) in
  Alcotest.(check string) "polynomial method string"
    Srepair.Opt_s_repair.method_name poly.Ss.method_used;
  Alcotest.(check bool) "driver reports the same polynomial method" true
    (match Driver.s_repair_result (Fd_set.parse "A -> B") chain with
    | Ok c -> c.Driver.method_used = Srepair.Opt_s_repair.method_name
    | Error _ -> false)

(* ---------- rejected ticks leave the session unchanged --------------- *)

let test_rejects_leave_state () =
  let session = Ss.create staleness_fds (staleness_table ()) in
  let before = Ss.summary session in
  let reject delta =
    match Ss.tick session delta with
    | () -> Alcotest.fail "expected a rejected tick"
    | exception Repair_runtime.Repair_error.Error (Parse _) -> ()
  in
  reject (Delta.Insert { id = Some 2; weight = 1.0; values = [ Value.int 1; Value.int 1 ] });
  reject (Delta.Insert { id = None; weight = -1.0; values = [ Value.int 1; Value.int 1 ] });
  reject
    (Delta.Insert
       { id = None; weight = Float.infinity; values = [ Value.int 1; Value.int 1 ] });
  reject
    (Delta.Insert
       { id = None; weight = Float.nan; values = [ Value.int 1; Value.int 1 ] });
  reject (Delta.Insert { id = None; weight = 1.0; values = [ Value.int 1 ] });
  reject (Delta.Delete { id = 77 });
  let after = Ss.summary session in
  Alcotest.(check bool) "summary unchanged after rejects" true
    (Table.equal before.Ss.result after.Ss.result
    && before.Ss.distance = after.Ss.distance);
  Alcotest.(check int) "all six rejects counted" 6 (Ss.stats session).Ss.rejects;
  Alcotest.(check int) "no tick accepted" 0 (Ss.stats session).Ss.ticks

let () =
  Alcotest.run "stream"
    [ ( "differential",
        List.map (fun w -> stream_matches_cold w) widths );
      ( "block cache",
        [ Alcotest.test_case "staleness" `Quick test_block_cache_staleness ] );
      ( "driver parity",
        [ Alcotest.test_case "ladder constants" `Quick test_ladder_parity ] );
      ( "rejects",
        [ Alcotest.test_case "state unchanged" `Quick test_rejects_leave_state ]
      ) ]
