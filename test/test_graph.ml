open Repair_graph
open Helpers

(* ---------- Graph ---------- *)

let petersen_outer = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]

let test_graph_basics () =
  let g = Graph.of_edges 5 petersen_outer in
  Alcotest.(check int) "n" 5 (Graph.n_vertices g);
  Alcotest.(check int) "m" 5 (Graph.n_edges g);
  Alcotest.(check (list int)) "neighbours" [ 1; 4 ] (Graph.neighbours g 0);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check bool) "mem both ways" true
    (Graph.mem_edge g 0 1 && Graph.mem_edge g 1 0);
  (* duplicate edge ignored *)
  Graph.add_edge g 0 1;
  Alcotest.(check int) "no dup edge" 5 (Graph.n_edges g)

let test_graph_errors () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1);
  Alcotest.(check bool) "range" true
    (try Graph.add_edge g 0 7; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "nonpositive weight" true
    (try ignore (Graph.create_weighted [| 1.0; 0.0 |]); false
     with Invalid_argument _ -> true)

(* ---------- Vertex cover ---------- *)

let test_vc_known () =
  (* C5 cycle: τ = 3. *)
  let g = Graph.of_edges 5 petersen_outer in
  let c = Vertex_cover.exact g in
  Alcotest.(check bool) "is cover" true (Vertex_cover.is_cover g c);
  Alcotest.(check int) "C5 tau" 3 (List.length c);
  (* Star K1,4: τ = 1. *)
  let star = Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  Alcotest.(check int) "star tau" 1 (List.length (Vertex_cover.exact star));
  (* Edgeless graph: empty cover. *)
  let empty = Graph.create 4 in
  Alcotest.(check (list int)) "edgeless" [] (Vertex_cover.exact empty)

let test_vc_weighted () =
  (* Path a-b-c where b is very heavy: cover {a, c} beats {b}. *)
  let g = Graph.of_edges ~weights:[| 1.0; 10.0; 1.0 |] 3 [ (0, 1); (1, 2) ] in
  let c = Vertex_cover.exact g in
  check_float "weighted opt" 2.0 (Vertex_cover.cover_weight g c);
  Alcotest.(check (list int)) "endpoints" [ 0; 2 ] c

let random_graph rng n p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Repair_workload.Rng.bernoulli rng p then Graph.add_edge g u v
    done
  done;
  g

let test_vc_approx_bound () =
  let rng = Repair_workload.Rng.make 5 in
  for _ = 1 to 30 do
    let g = random_graph rng 10 0.3 in
    let apx = Vertex_cover.approx2 g in
    let opt = Vertex_cover.exact g in
    Alcotest.(check bool) "approx is cover" true (Vertex_cover.is_cover g apx);
    Alcotest.(check bool) "within factor 2" true
      (Vertex_cover.cover_weight g apx
       <= (2.0 *. Vertex_cover.cover_weight g opt) +. 1e-9)
  done

let test_vc_greedy_is_cover () =
  let rng = Repair_workload.Rng.make 6 in
  for _ = 1 to 20 do
    let g = random_graph rng 8 0.4 in
    Alcotest.(check bool) "greedy covers" true
      (Vertex_cover.is_cover g (Vertex_cover.greedy g))
  done

(* The incremental-worklist greedy must still return a valid cover on
   the E11 gadget graphs (random n=6 p=0.5 graphs over the bench seeds,
   as fed to the Theorem 4.10 vertex-cover gadget), and must pick the
   exact same cover as the edge-rescanning reference it replaced. *)
let greedy_reference g =
  let module Iset = Set.Make (Int) in
  let n = Graph.n_vertices g in
  let rec loop chosen =
    let uncovered =
      Graph.fold_edges
        (fun (u, v) acc ->
          if Iset.mem u chosen || Iset.mem v chosen then acc else (u, v) :: acc)
        g []
    in
    if uncovered = [] then chosen
    else begin
      let gain = Array.make n 0 in
      List.iter
        (fun (u, v) ->
          gain.(u) <- gain.(u) + 1;
          gain.(v) <- gain.(v) + 1)
        uncovered;
      let best = ref (-1) and best_score = ref neg_infinity in
      for v = 0 to n - 1 do
        if gain.(v) > 0 then begin
          let score = float_of_int gain.(v) /. Graph.weight g v in
          if score > !best_score then begin
            best := v;
            best_score := score
          end
        end
      done;
      loop (Iset.add !best chosen)
    end
  in
  Iset.elements (loop Iset.empty)

let test_vc_greedy_gadget () =
  let bench_seeds = List.init 10 (fun i -> 1000 + (17 * i)) in
  List.iter
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      let g = random_graph rng 6 0.5 in
      let cover = Vertex_cover.greedy g in
      Alcotest.(check bool) "greedy covers the gadget graph" true
        (Vertex_cover.is_cover g cover);
      Alcotest.(check (list int)) "matches the edge-rescanning reference"
        (greedy_reference g) cover;
      (* the gadget table built from the same graph stays repairable *)
      let vg = Repair_reductions.Vc_gadget.of_graph g in
      let u = Repair_reductions.Vc_gadget.update_of_cover vg cover in
      Alcotest.(check bool) "cover yields a consistent update" true
        (Repair_fd.Fd_set.satisfied_by vg.Repair_reductions.Vc_gadget.fds
           u))
    bench_seeds

(* ---------- Max flow & LP bound ---------- *)

let test_max_flow_known () =
  (* Classic 4-node diamond: S=0, T=3; S→1 (3), S→2 (2), 1→2 (1), 1→3 (2),
     2→3 (3): max flow = 5. *)
  let net = Max_flow.create 4 in
  Max_flow.add_edge net 0 1 3.0;
  Max_flow.add_edge net 0 2 2.0;
  Max_flow.add_edge net 1 2 1.0;
  Max_flow.add_edge net 1 3 2.0;
  Max_flow.add_edge net 2 3 3.0;
  check_float "diamond max flow" 5.0 (Max_flow.max_flow net ~source:0 ~sink:3);
  (* repeatable *)
  check_float "idempotent rerun" 5.0 (Max_flow.max_flow net ~source:0 ~sink:3);
  let side = Max_flow.min_cut_side net ~source:0 in
  Alcotest.(check bool) "source on its side" true (List.mem 0 side);
  Alcotest.(check bool) "sink not reachable" false (List.mem 3 side)

let test_max_flow_disconnected () =
  let net = Max_flow.create 3 in
  Max_flow.add_edge net 0 1 5.0;
  check_float "no path" 0.0 (Max_flow.max_flow net ~source:0 ~sink:2);
  Alcotest.(check bool) "source=sink rejected" true
    (try ignore (Max_flow.max_flow net ~source:1 ~sink:1); false
     with Invalid_argument _ -> true)

let test_lp_bound_known () =
  (* Single edge, unit weights: x_u = x_v = 1/2 is optimal, value 1. *)
  let g1 = Graph.of_edges 2 [ (0, 1) ] in
  check_float "single edge LP" 1.0 (Vertex_cover.lp_lower_bound g1);
  (* Triangle, unit weights: LP = 3/2 (all x = 1/2); IP optimum 2. *)
  let k3 = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  check_float "triangle LP 3/2" 1.5 (Vertex_cover.lp_lower_bound k3);
  Alcotest.(check int) "triangle IP 2" 2 (List.length (Vertex_cover.exact k3));
  (* Bipartite: LP is integral — equals the optimum. Star K1,3. *)
  let star = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
  check_float "star LP integral" 1.0 (Vertex_cover.lp_lower_bound star);
  (* Edgeless. *)
  check_float "edgeless" 0.0 (Vertex_cover.lp_lower_bound (Graph.create 3))

let prop_lp_bound_sandwich =
  qcheck ~count:60 "matching bound ≤ LP bound ≤ optimum"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      let g = random_graph rng 8 0.35 in
      (* random small integer weights *)
      let g =
        Graph.of_edges
          ~weights:(Array.init 8 (fun _ -> float_of_int (Repair_workload.Rng.in_range rng 1 4)))
          8 (Graph.edges g)
      in
      let matching = Vertex_cover.matching_lower_bound g in
      let lp = Vertex_cover.lp_lower_bound g in
      let opt = Vertex_cover.cover_weight g (Vertex_cover.exact g) in
      matching <= lp +. 1e-6 && lp <= opt +. 1e-6)

let prop_lp_exact_on_bipartite =
  qcheck ~count:40 "LP bound equals the optimum on bipartite graphs"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      (* random bipartite graph on 4+4 nodes *)
      let g = Graph.create 8 in
      for u = 0 to 3 do
        for v = 4 to 7 do
          if Repair_workload.Rng.bernoulli rng 0.4 then Graph.add_edge g u v
        done
      done;
      let lp = Vertex_cover.lp_lower_bound g in
      let opt = Vertex_cover.cover_weight g (Vertex_cover.exact g) in
      Float.abs (lp -. opt) < 1e-6)

(* ---------- 2-approximation past the exact solver's reach ---------- *)

(* The local-ratio payments form a feasible edge packing, so they sum to
   at most the LP bound (weak duality), and Bar-Yehuda–Even's cover
   weighs at most twice them: LP ≤ approx2 ≤ 2·LP. This checks
   Proposition 3.3's factor on weighted graphs of up to 150 vertices,
   where the exact comparison of "2-approx bound" cannot run. *)
let prop_approx2_within_twice_lp =
  qcheck ~count:40 "local-ratio cover within twice the LP bound"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      let n = Repair_workload.Rng.in_range rng 40 150 in
      let g = random_graph rng n 0.08 in
      (* Light and heavy vertices: a weight-blind cover, such as both
         endpoints of a maximal matching, overshoots 2·LP here. *)
      let weight _ =
        float_of_int
          (if Repair_workload.Rng.bool rng then
             Repair_workload.Rng.in_range rng 1 5
           else Repair_workload.Rng.in_range rng 20 100)
      in
      let g = Graph.of_edges ~weights:(Array.init n weight) n (Graph.edges g) in
      let apx = Vertex_cover.approx2 g in
      let w = Vertex_cover.cover_weight g apx in
      let lp = Vertex_cover.lp_lower_bound g in
      Vertex_cover.is_cover g apx && lp <= w +. 1e-6 && w <= (2.0 *. lp) +. 1e-6)

(* ---------- Bipartite matching ---------- *)

let test_matching_known () =
  (* 2x2: diagonal worth 3+3, antidiagonal 5+1: max is antidiag? 5+1=6 = 3+3.
     Make it unambiguous. *)
  let w = [| [| 4.0; 1.0 |]; [| 2.0; 3.0 |] |] in
  let pairs, total = Bipartite_matching.solve w in
  check_float "total" 7.0 total;
  Alcotest.(check bool) "diag chosen" true
    (List.mem (0, 0) pairs && List.mem (1, 1) pairs);
  (* Leaving a row unmatched can be optimal when columns are scarce. *)
  let w2 = [| [| 5.0 |]; [| 9.0 |] |] in
  let pairs2, total2 = Bipartite_matching.solve w2 in
  check_float "scarce column" 9.0 total2;
  Alcotest.(check int) "single pair" 1 (List.length pairs2)

let test_matching_rectangular () =
  let w = [| [| 1.0; 2.0; 3.0 |] |] in
  let pairs, total = Bipartite_matching.solve w in
  check_float "picks best column" 3.0 total;
  Alcotest.(check (list (pair int int))) "pair" [ (0, 2) ] pairs

let test_matching_empty () =
  let pairs, total = Bipartite_matching.solve [||] in
  Alcotest.(check (list (pair int int))) "empty" [] pairs;
  check_float "zero" 0.0 total;
  (* all-zero matrix: nothing worth matching *)
  let pairs2, _ = Bipartite_matching.solve [| [| 0.0; 0.0 |] |] in
  Alcotest.(check (list (pair int int))) "all zeros" [] pairs2

let prop_matching_optimal =
  qcheck ~count:200 "hungarian equals brute force"
    QCheck2.Gen.(
      let* n1 = int_range 1 5 and* n2 = int_range 1 5 in
      list_repeat n1 (list_repeat n2 (map float_of_int (int_range 0 9))))
    (fun rows ->
      let w = Array.of_list (List.map Array.of_list rows) in
      let pairs, total = Bipartite_matching.solve w in
      let _, best = Bipartite_matching.brute_force w in
      Bipartite_matching.is_matching pairs
      && consistent_distance_eq total best
      && consistent_distance_eq total (Bipartite_matching.matching_weight w pairs))

(* ---------- Triangles ---------- *)

let test_triangle_enumerate () =
  (* K4 has 4 triangles. *)
  let k4 = Graph.of_edges 4 [ (0,1); (0,2); (0,3); (1,2); (1,3); (2,3) ] in
  Alcotest.(check int) "K4 triangles" 4 (List.length (Triangle.enumerate k4));
  (* C5 has none. *)
  let c5 = Graph.of_edges 5 petersen_outer in
  Alcotest.(check (list (triple int int int))) "C5 none" [] (Triangle.enumerate c5)

let test_triangle_packing () =
  (* K4: any two triangles share an edge, so max packing = 1. *)
  let k4 = Graph.of_edges 4 [ (0,1); (0,2); (0,3); (1,2); (1,3); (2,3) ] in
  Alcotest.(check int) "K4 packing" 1 (List.length (Triangle.max_packing k4));
  (* Two disjoint triangles. *)
  let g2 = Graph.of_edges 6 [ (0,1); (1,2); (0,2); (3,4); (4,5); (3,5) ] in
  Alcotest.(check int) "two disjoint" 2 (List.length (Triangle.max_packing g2));
  Alcotest.(check bool) "greedy edge-disjoint" true
    (Triangle.edge_disjoint (Triangle.greedy_packing g2));
  (* K222: 8 triangles, max edge-disjoint packing 4. *)
  let k222 =
    Triangle.tripartite_of_parts 2 2 2
      [ (0,2);(0,3);(1,2);(1,3);(0,4);(0,5);(1,4);(1,5);(2,4);(2,5);(3,4);(3,5) ]
  in
  Alcotest.(check int) "K222 triangles" 8 (List.length (Triangle.enumerate k222));
  Alcotest.(check int) "K222 packing" 4 (List.length (Triangle.max_packing k222))

let test_tripartite_validation () =
  Alcotest.(check bool) "intra-part edge rejected" true
    (try ignore (Triangle.tripartite_of_parts 2 2 2 [ (0, 1) ]); false
     with Invalid_argument _ -> true)

let prop_packing_greedy_vs_exact =
  qcheck ~count:40 "greedy packing is edge-disjoint and at most exact"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      let g = random_graph rng 7 0.45 in
      let greedy = Triangle.greedy_packing g in
      let exact = Triangle.max_packing g in
      Triangle.edge_disjoint greedy
      && Triangle.edge_disjoint exact
      && List.length greedy <= List.length exact
      && 3 * List.length greedy >= List.length exact)

let () =
  Alcotest.run "graph"
    [ ( "graph",
        [ Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "errors" `Quick test_graph_errors ] );
      ( "vertex cover",
        [ Alcotest.test_case "known graphs" `Quick test_vc_known;
          Alcotest.test_case "weighted" `Quick test_vc_weighted;
          Alcotest.test_case "2-approx bound" `Quick test_vc_approx_bound;
          Alcotest.test_case "greedy covers" `Quick test_vc_greedy_is_cover;
          Alcotest.test_case "greedy on E11 gadget graphs" `Quick
            test_vc_greedy_gadget ] );
      ( "max flow / lp bound",
        [ Alcotest.test_case "max flow known" `Quick test_max_flow_known;
          Alcotest.test_case "disconnected" `Quick test_max_flow_disconnected;
          Alcotest.test_case "lp bound known" `Quick test_lp_bound_known;
          prop_lp_bound_sandwich;
          prop_lp_exact_on_bipartite ] );
      ("2-approximation at scale", [ prop_approx2_within_twice_lp ]);
      ( "matching",
        [ Alcotest.test_case "known" `Quick test_matching_known;
          Alcotest.test_case "rectangular" `Quick test_matching_rectangular;
          Alcotest.test_case "empty" `Quick test_matching_empty;
          prop_matching_optimal ] );
      ( "triangles",
        [ Alcotest.test_case "enumerate" `Quick test_triangle_enumerate;
          Alcotest.test_case "packing" `Quick test_triangle_packing;
          Alcotest.test_case "tripartite check" `Quick test_tripartite_validation;
          prop_packing_greedy_vs_exact ] ) ]
