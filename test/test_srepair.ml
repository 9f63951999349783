open Repair_relational
open Repair_fd
open Repair_srepair
open Helpers
module D = Repair_workload.Datasets
module Gen_fd = Repair_workload.Gen_fd
module Gen_table = Repair_workload.Gen_table
module Rng = Repair_workload.Rng

(* ---------- Figure 1 / Example 2.3 ---------- *)

let test_office_distances () =
  let t = D.office_table in
  check_float "S1" 2.0 (Table.dist_sub D.office_s1 t);
  check_float "S2" 2.0 (Table.dist_sub D.office_s2 t);
  check_float "S3" 3.0 (Table.dist_sub D.office_s3 t);
  List.iter
    (fun s -> Alcotest.(check bool) "consistent" true (Fd_set.satisfied_by D.office_fds s))
    [ D.office_s1; D.office_s2; D.office_s3 ]

let test_office_optimal () =
  let s = Opt_s_repair.run_exn D.office_fds D.office_table in
  check_float "optimal distance 2" 2.0 (Table.dist_sub s D.office_table);
  Alcotest.(check bool) "consistent" true (Fd_set.satisfied_by D.office_fds s);
  Alcotest.(check bool) "is maximal S-repair" true
    (S_check.is_s_repair D.office_fds ~of_:D.office_table s);
  (* Exact baselines agree. *)
  check_float "vc baseline" 2.0 (S_exact.distance D.office_fds D.office_table);
  check_float "brute force" 2.0
    (Table.dist_sub (S_exact.brute_force D.office_fds D.office_table) D.office_table)

let test_s3_is_repair_but_not_optimal () =
  (* S3 is a consistent subset that is 1.5-optimal (Example 2.3). It is not
     maximal — tuple 2 can be restored — illustrating that the paper
     identifies S-repairs with consistent subsets. *)
  Alcotest.(check bool) "S3 consistent subset" true
    (S_check.is_consistent_subset D.office_fds ~of_:D.office_table D.office_s3);
  Alcotest.(check bool) "S3 not maximal" false
    (S_check.is_s_repair D.office_fds ~of_:D.office_table D.office_s3);
  let maximal = S_check.make_maximal D.office_fds ~of_:D.office_table D.office_s3 in
  Alcotest.(check (list int)) "restoring tuple 2" [ 2; 3; 4 ] (Table.ids maximal);
  Alcotest.(check bool) "S3 1.5-optimal" true
    (S_check.is_alpha_optimal D.office_fds ~of_:D.office_table ~alpha:1.5 D.office_s3);
  Alcotest.(check bool) "S3 not 1.4-optimal" false
    (S_check.is_alpha_optimal D.office_fds ~of_:D.office_table ~alpha:1.4 D.office_s3)

(* ---------- Algorithm 1 cases ---------- *)

let test_trivial_fds () =
  let t = D.office_table in
  let s = Opt_s_repair.run_exn Fd_set.empty t in
  Alcotest.check table "empty Δ returns T" t s;
  let s2 = Opt_s_repair.run_exn (Fd_set.parse "facility -> facility") t in
  Alcotest.check table "trivial Δ returns T" t s2

let test_empty_table () =
  let t = Table.empty D.r3_schema in
  List.iter
    (fun d ->
      match Opt_s_repair.run d t with
      | Ok s -> Alcotest.(check int) "empty stays empty" 0 (Table.size s)
      | Error _ -> Alcotest.fail "should handle empty table")
    [ D.delta_a_b_c_marriage; Fd_set.parse "A -> B"; Fd_set.parse "-> A" ]

let test_consensus_case () =
  (* ∅ → A keeps the heaviest A-group. *)
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let t =
    Table.of_list s
      [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2); (3, 2.5, mk 2 1) ]
  in
  let rep = Opt_s_repair.run_exn (Fd_set.parse "-> A") t in
  Alcotest.(check (list int)) "heavier group kept" [ 3 ] (Table.ids rep);
  (* With unit weights the bigger group wins. *)
  let t2 = Table.of_list s [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2); (3, 1.0, mk 2 1) ] in
  let rep2 = Opt_s_repair.run_exn (Fd_set.parse "-> A") t2 in
  Alcotest.(check (list int)) "bigger group kept" [ 1; 2 ] (Table.ids rep2)

let test_duplicates_and_weights () =
  (* Duplicate tuples must both be kept (they never conflict). *)
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let t =
    Table.of_list s
      [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 1); (3, 1.0, mk 1 2) ]
  in
  let rep = Opt_s_repair.run_exn (Fd_set.parse "A -> B") t in
  Alcotest.(check (list int)) "duplicates kept together" [ 1; 2 ] (Table.ids rep);
  (* A heavy conflicting tuple outweighs two duplicates. *)
  let t2 =
    Table.of_list s
      [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 1); (3, 5.0, mk 1 2) ]
  in
  let rep2 = Opt_s_repair.run_exn (Fd_set.parse "A -> B") t2 in
  Alcotest.(check (list int)) "heavy tuple kept" [ 3 ] (Table.ids rep2)

let test_marriage_case_nontrivial () =
  (* Δ_A↔B→C: matching must pair A-values with B-values. *)
  let mk a b c = Tuple.make [ Value.int a; Value.int b; Value.int c ] in
  let t =
    Table.of_list D.r3_schema
      [ (1, 1.0, mk 1 1 0); (2, 1.0, mk 1 2 0); (3, 1.0, mk 2 2 0); (4, 1.0, mk 2 1 0) ]
  in
  let rep = Opt_s_repair.run_exn D.delta_a_b_c_marriage t in
  check_float "keeps a perfect matching" 2.0 (Table.total_weight rep);
  Alcotest.(check bool) "consistent" true
    (Fd_set.satisfied_by D.delta_a_b_c_marriage rep);
  check_float "matches exact" (S_exact.distance D.delta_a_b_c_marriage t)
    (Table.dist_sub rep t)

let test_fails_on_empty_table_hard_delta () =
  (* Regression (found by repair-fuzz): success must depend only on Δ, even
     when a simplification step leaves no tuples. The zip FD set applies a
     common-lhs step before getting stuck. *)
  List.iter
    (fun tbl ->
      match Opt_s_repair.run D.delta_zip tbl with
      | Ok _ -> Alcotest.fail "zip Δ must fail regardless of data"
      | Error _ -> ())
    [ Table.empty D.zip_schema;
      Table.of_tuples D.zip_schema
        [ Tuple.make [ Value.int 1; Value.int 1; Value.int 1; Value.int 1 ] ] ]

let test_fails_on_table1 () =
  List.iter
    (fun (name, d) ->
      match Opt_s_repair.run d (Table.empty D.r3_schema) with
      | Ok _ -> Alcotest.fail (name ^ " should fail")
      | Error stuck ->
        Alcotest.(check bool) (name ^ " stuck nonempty") false (Fd_set.is_empty stuck))
    D.table1

(* ---------- Conflict graph ---------- *)

let test_conflict_graph () =
  let cg = Conflict_graph.build D.office_fds D.office_table in
  (* Pairs (1,2) — violating both FDs — and (1,3) conflict: 2 edges. *)
  Alcotest.(check int) "two conflict edges" 2 (Conflict_graph.n_conflicts cg);
  let g = Conflict_graph.graph cg in
  Alcotest.(check int) "four vertices" 4 (Repair_graph.Graph.n_vertices g);
  (* vertex v is the v-th row in id order; weights come from tuples *)
  check_float "weight carried" 2.0 (Repair_graph.Graph.weight g 0);
  Alcotest.(check int) "vertex 0 is id 1" 1 (Conflict_graph.id_of_vertex cg 0)

(* [build] groups on lhs projections; [build_naive] tests every pair
   against every FD. Both must yield the same vertices (ids and weights)
   and the same edge set, on any Δ — consensus FDs and multi-attribute
   rhs included — and on weighted tables with duplicate tuples. *)
let prop_conflict_graph_matches_naive =
  let schema = Schema.make "R" [ "A"; "B"; "C"; "D" ] in
  qcheck ~count:200 "build = all-pairs build_naive"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 4) (gen_any_fd schema) |> map Fd_set.of_list)
        (gen_table ~dom:2 ~max_size:12 ~weighted:true schema))
    (fun (d, t) ->
      let cg = Conflict_graph.build d t and naive = Conflict_graph.build_naive d t in
      let g = Conflict_graph.graph cg and gn = Conflict_graph.graph naive in
      let vertices cg g =
        List.init (Repair_graph.Graph.n_vertices g) (fun v ->
            (Conflict_graph.id_of_vertex cg v, Repair_graph.Graph.weight g v))
      in
      let edges g =
        Repair_graph.Graph.edges g
        |> List.map (fun (u, v) -> (min u v, max u v))
        |> List.sort compare
      in
      vertices cg g = vertices naive gn
      && edges g = edges gn
      && Conflict_graph.n_conflicts cg = Conflict_graph.n_conflicts naive)

(* ---------- checking utilities ---------- *)

let test_make_maximal () =
  let empty = Table.empty (Table.schema D.office_table) in
  let m = S_check.make_maximal D.office_fds ~of_:D.office_table empty in
  Alcotest.(check bool) "maximal" true
    (S_check.is_s_repair D.office_fds ~of_:D.office_table m);
  Alcotest.(check bool) "nonempty" true (Table.size m > 0)

let test_is_consistent_subset_rejects () =
  Alcotest.(check bool) "T itself inconsistent" false
    (S_check.is_consistent_subset D.office_fds ~of_:D.office_table D.office_table);
  (* A "subset" with altered weight is not a subset. *)
  let fake = Table.map_weights D.office_s1 (fun _ w -> w +. 1.0) in
  Alcotest.(check bool) "weight mismatch" false
    (S_check.is_consistent_subset D.office_fds ~of_:D.office_table fake)

(* ---------- properties: Algorithm 1 = exact baseline ---------- *)

let random_instance rng schema d ~n ~noise =
  Gen_table.dirty rng schema d
    { Gen_table.default with n; noise; domain_size = 4; weighted = true }

(* Algorithm 1 must succeed exactly when Algorithm 2 (OSRSucceeds) says so,
   and on success match the exact baseline. *)
let prop_optsrepair_matches_exact_family name mk_family =
  qcheck ~count:25 ("OptSRepair = exact VC baseline: " ^ name)
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema, d = mk_family rng in
      let t = random_instance rng schema d ~n:10 ~noise:0.25 in
      match Opt_s_repair.run d t with
      | Error _ -> not (Repair_dichotomy.Simplify.succeeds d)
      | Ok s ->
        Repair_dichotomy.Simplify.succeeds d
        && Fd_set.satisfied_by d s
        && S_check.is_consistent_subset d ~of_:t s
        && consistent_distance_eq (Table.dist_sub s t) (S_exact.distance d t))

let prop_chain = prop_optsrepair_matches_exact_family "chain FD sets"
    (fun rng -> Gen_fd.chain rng ~n_attrs:4 ~n_fds:3)

let prop_common_lhs = prop_optsrepair_matches_exact_family "common-lhs FD sets"
    (fun rng -> Gen_fd.common_lhs rng ~n_attrs:4 ~n_fds:3)

let prop_marriage = prop_optsrepair_matches_exact_family "lhs-marriage FD sets"
    (fun rng ->
      let n = 1 + Rng.int rng 2 in
      Gen_fd.marriage n)

let prop_office_family = prop_optsrepair_matches_exact_family "running example"
    (fun _ -> (D.office_schema, D.office_fds))

let prop_approx2_bound =
  qcheck ~count:40 "2-approximation within bound on hard sets (Prop 3.3)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = D.delta_a_to_b_to_c in
      let t = random_instance rng D.r3_schema d ~n:12 ~noise:0.3 in
      let s = S_approx.approx2 d t in
      S_check.is_consistent_subset d ~of_:t s
      && Table.dist_sub s t <= (2.0 *. S_exact.distance d t) +. 1e-9)

let prop_exact_consistent_all_fd_sets =
  qcheck ~count:60 "exact baseline always returns a consistent subset"
    QCheck2.Gen.(pair (gen_fd_set small_schema) (gen_table ~max_size:7 small_schema))
    (fun (d, t) ->
      let s = S_exact.optimal d t in
      S_check.is_consistent_subset d ~of_:t s
      && consistent_distance_eq (Table.dist_sub s t)
           (Table.dist_sub (S_exact.brute_force d t) t))

let prop_brute_vs_vc =
  qcheck ~count:40 "branch-and-bound VC equals 2^n brute force"
    QCheck2.Gen.(pair (gen_fd_set small_schema) (gen_table ~max_size:8 ~weighted:false small_schema))
    (fun (d, t) ->
      consistent_distance_eq (S_exact.distance d t)
        (Table.dist_sub (S_exact.brute_force d t) t))

let () =
  Alcotest.run "srepair"
    [ ( "figure 1",
        [ Alcotest.test_case "subset distances (Ex 2.3)" `Quick test_office_distances;
          Alcotest.test_case "optimal repair" `Quick test_office_optimal;
          Alcotest.test_case "S3 is 1.5-optimal" `Quick test_s3_is_repair_but_not_optimal ] );
      ( "algorithm 1",
        [ Alcotest.test_case "trivial Δ" `Quick test_trivial_fds;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "consensus case" `Quick test_consensus_case;
          Alcotest.test_case "duplicates & weights" `Quick test_duplicates_and_weights;
          Alcotest.test_case "marriage matching" `Quick test_marriage_case_nontrivial;
          Alcotest.test_case "fails on Table 1" `Quick test_fails_on_table1;
          Alcotest.test_case "fails on empty tables too" `Quick
            test_fails_on_empty_table_hard_delta ] );
      ( "conflict graph",
        [ Alcotest.test_case "office conflicts" `Quick test_conflict_graph;
          prop_conflict_graph_matches_naive ] );
      ( "checking",
        [ Alcotest.test_case "make_maximal" `Quick test_make_maximal;
          Alcotest.test_case "subset rejection" `Quick test_is_consistent_subset_rejects ] );
      ( "properties",
        [ prop_chain;
          prop_common_lhs;
          prop_marriage;
          prop_office_family;
          prop_approx2_bound;
          prop_exact_consistent_all_fd_sets;
          prop_brute_vs_vc ] ) ]
