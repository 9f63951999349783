(* Benchmark harness: regenerates every table/figure-equivalent experiment
   of the paper (see DESIGN.md §4 for the experiment index E1-E15 and
   EXPERIMENTS.md for the paper-vs-measured record).

   Run with:  dune exec bench/main.exe *)

module R = Repair_core.Repair
open R.Relational
open R.Fd
open Bench_util
module D = R.Workload.Datasets
module Gen_table = R.Workload.Gen_table
module Gen_fd = R.Workload.Gen_fd
module Rng = R.Workload.Rng
module Simplify = R.Dichotomy.Simplify
module Classify = R.Dichotomy.Classify

let seeds n = List.init n (fun i -> 1000 + (17 * i))

let dirty rng schema d ~n ~noise ~dom =
  Gen_table.dirty rng schema d
    { Gen_table.default with n; noise; domain_size = dom }

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  section "E1" "Figure 1 / Example 2.3 — the running Office example";
  let t = D.office_table in
  row "  %-10s %-14s %-10s@." "object" "paper dist" "measured";
  List.iter
    (fun (name, expected, measured) ->
      row "  %-10s %-14g %-10g %s@." name expected measured
        (if approx_eq expected measured then "✓" else "✗"))
    [ ("S1", 2.0, Table.dist_sub D.office_s1 t);
      ("S2", 2.0, Table.dist_sub D.office_s2 t);
      ("S3", 3.0, Table.dist_sub D.office_s3 t);
      ("U1", 2.0, Table.dist_upd D.office_u1 t);
      ("U2", 3.0, Table.dist_upd D.office_u2 t);
      ("U3", 4.0, Table.dist_upd D.office_u3 t) ];
  let s = R.Srepair.Opt_s_repair.run_exn D.office_fds t in
  let u = R.Urepair.Opt_u_repair.solve_exn D.office_fds t in
  row "  optimal S-repair distance: %g (paper: 2; S1 and S2 optimal)@."
    (Table.dist_sub s t);
  row "  optimal U-repair distance: %g (paper: 2; U1 optimal)@."
    (Table.dist_upd u t);
  check "both optima equal 2"
    (approx_eq (Table.dist_sub s t) 2.0 && approx_eq (Table.dist_upd u t) 2.0)

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  section "E2" "Example 3.5 + Algorithm 2 — dichotomy classification";
  let sets =
    [ ("running Δ (office)", D.office_fds, true);
      ("Δ_A↔B→C", D.delta_a_b_c_marriage, true);
      ("Δ1 employee (ssn)", D.delta_ssn, true);
      ("Δ0 = {product→price, buyer→email}", D.delta0, false);
      ("Δ3 = {email→buyer, buyer→address}", D.delta3, false);
      ("Δ4 (S-tractable, U-hard)", D.delta4, true);
      ("{A→B, B→C}", D.delta_a_to_b_to_c, false);
      ("{A→B, C→D}", Fd_set.parse "A -> B; C -> D", false);
      ("passport (Ex 4.7)", D.delta_passport, true);
      ("zip (Ex 4.7)", D.delta_zip, false) ]
  in
  row "  %-38s %-14s %-14s %s@." "FD set" "paper S-side" "measured" "U-repair";
  List.iter
    (fun (name, d, paper_tractable) ->
      let measured = Simplify.succeeds d in
      let u_side =
        if R.Urepair.Opt_u_repair.tractable d then "P"
        else "not known P"
      in
      row "  %-38s %-14s %-14s %-12s %s@." name
        (if paper_tractable then "P" else "APX-complete")
        (if measured then "P" else "APX-complete")
        u_side
        (if measured = paper_tractable then "✓" else "✗"))
    sets;
  subsection "derivation trace for the running example (Example 3.5)";
  let _, trace = Simplify.run D.office_fds in
  Fmt.pr "%a" Simplify.pp_trace (D.office_fds, trace);
  subsection "derivation trace for the employee FD set";
  let _, trace = Simplify.run D.delta_ssn in
  Fmt.pr "%a" Simplify.pp_trace (D.delta_ssn, trace)

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  section "E3" "Table 1 — the four hard FD sets over R(A,B,C)";
  row "  %-16s %-12s %-8s %s@." "FD set" "OSRSucceeds" "class" "fact-wise source";
  List.iter
    (fun (name, d) ->
      match Classify.classify d with
      | `Tractable _ -> row "  %-16s TRACTABLE (✗ should be hard)@." name
      | `Hard (_, _, cert) ->
        row "  %-16s %-12s %-8d %s@." name "false"
          cert.Classify.cls
          (Classify.source_name cert.Classify.source))
    D.table1;
  subsection "five-class certificates for Example 3.8";
  List.iter
    (fun (n, _, d) ->
      let c = Classify.certify d in
      row "  Δ%d: expected class %d, measured %a@." n n
        Classify.pp_certificate c)
    D.class_examples

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  section "E4" "Theorem 3.2 — OptSRepair runs in polynomial time (scaling)";
  let sizes = [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000 ] in
  let make_input n =
    let rng = Rng.make (42 + n) in
    dirty rng D.office_schema D.office_fds ~n ~noise:0.05 ~dom:30
  in
  let inputs = List.map (fun n -> (n, make_input n)) sizes in
  let tests =
    List.map
      (fun (n, t) ->
        ( string_of_int n,
          fun () -> ignore (R.Srepair.Opt_s_repair.run_exn D.office_fds t) ))
      inputs
  in
  let results = time_tests ~name:"optsrepair" tests in
  row "  %-8s %-12s %s@." "n" "time/run" "time per tuple";
  List.iter
    (fun (label, ns) ->
      let n = float_of_string label in
      row "  %-8s %-12s %s@." label (Fmt.str "%a" pp_ns ns) (Fmt.str "%a" pp_ns (ns /. n)))
    results;
  (match (results, List.rev results) with
  | (_, t0) :: _, (_, t3) :: _ ->
    let blowup = t3 /. t0 and size_ratio = 32.0 in
    row "  32× data → %.1f× time (paper: polynomial; near-linear expected)@."
      blowup;
    check "scaling is sub-quadratic" (blowup < size_ratio *. size_ratio)
  | _ -> ())

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  section "E5" "Proposition 3.3 — quality of the 2-approximation";
  let d = D.delta_a_to_b_to_c in
  row "  %-6s %-10s %-10s %-8s@." "n" "mean rat" "max rat" "bound";
  List.iter
    (fun n ->
      let ratios =
        List.map
          (fun seed ->
            let rng = Rng.make seed in
            let t = dirty rng D.r3_schema d ~n ~noise:0.25 ~dom:4 in
            let apx = R.Srepair.S_approx.distance d t in
            let opt = R.Srepair.S_exact.distance d t in
            if opt = 0.0 then 1.0 else apx /. opt)
          (seeds 5)
      in
      row "  %-6d %-10.3f %-10.3f %-8g %s@." n (mean ratios) (maximum ratios)
        2.0
        (if maximum ratios <= 2.0 +. 1e-9 then "✓" else "✗"))
    [ 20; 40; 60 ];
  (* Throughput at scale, where exact solving is hopeless. *)
  let rng = Rng.make 7 in
  let big = dirty rng D.r3_schema d ~n:2_000 ~noise:0.05 ~dom:40 in
  let results =
    time_tests ~name:"approx2"
      [ ("n=2000", fun () -> ignore (R.Srepair.S_approx.approx2 d big)) ]
  in
  List.iter (fun (l, ns) -> row "  throughput %s: %a@." l pp_ns ns) results

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  section "E6" "Theorem 3.10 — MPD solved through the S-repair reduction";
  let schema = Schema.make "R" [ "A"; "B" ] in
  let d = Fd_set.parse "A -> B" in
  let diffs =
    List.map
      (fun seed ->
        let rng = Rng.make seed in
        let tbl = ref (Table.empty schema) in
        for _ = 1 to 12 do
          let p = 0.1 +. (0.09 *. float_of_int (Rng.in_range rng 0 9)) in
          tbl :=
            Table.add ~weight:p !tbl
              (Tuple.make [ Value.int (Rng.in_range rng 1 2);
                            Value.int (Rng.in_range rng 1 3) ])
        done;
        let pt = R.Mpd.Prob_table.of_table !tbl in
        match R.Mpd.Mpd.solve ~strategy:R.Mpd.Mpd.Poly d pt with
        | Ok (Some world) ->
          let bf = R.Mpd.Mpd.brute_force d pt in
          Float.abs
            (R.Mpd.Prob_table.log_probability pt world
            -. R.Mpd.Prob_table.log_probability pt bf)
        | Ok None -> 0.0
        | Error _ -> infinity)
      (seeds 10)
  in
  row "  10 random probabilistic tables (n=12), Δ = {A→B}@.";
  row "  max |log Pr(poly) − log Pr(brute force)| = %.2e@." (maximum diffs);
  check "reduction finds the most probable database" (maximum diffs < 1e-9)

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  section "E7" "Corollary 4.5 — dist_sub(S*) ≤ dist_upd(U*) ≤ mlc·dist_sub(S*)";
  let d = D.delta_a_to_b_to_c in
  let mlc = float_of_int (R.Fd.Lhs_analysis.mlc d) in
  let stats =
    List.filter_map
      (fun seed ->
        let rng = Rng.make seed in
        let t = dirty rng D.r3_schema d ~n:4 ~noise:0.4 ~dom:3 in
        let s = R.Srepair.S_exact.distance d t in
        let u = R.Urepair.U_exact.distance d t in
        if s = 0.0 then None else Some (s, u))
      (seeds 25)
  in
  let ok =
    List.for_all (fun (s, u) -> s <= u +. 1e-9 && u <= (mlc *. s) +. 1e-9) stats
  in
  let ratios = List.map (fun (s, u) -> u /. s) stats in
  row "  Δ = {A→B, B→C}, mlc = %g; %d dirty instances@." mlc (List.length stats);
  row "  measured dist_upd/dist_sub: mean %.3f, max %.3f (must lie in [1, %g])@."
    (mean ratios) (maximum ratios) mlc;
  check "sandwich inequality holds on every instance" ok

(* ------------------------------------------------------------ E8 / E9 *)

let e8_e9 () =
  section "E8" "Section 4.4, Δk — our Θ(k) ratio vs Kolahi–Lakshmanan Θ(k²)";
  row "  %-4s %-22s %-22s@." "k" "ours 2·mlc (paper 2(k+2))" "KL (MCI+2)(2MFS−1)";
  List.iter
    (fun k ->
      let _, dk = D.delta_k k in
      let ours = 2 * R.Fd.Lhs_analysis.mlc dk in
      let kl = R.Fd.Lhs_analysis.kl_ratio dk in
      row "  %-4d %-22d %-22d@." k ours kl)
    [ 1; 2; 3; 4; 5; 6 ];
  row "  shape: ours grows linearly, KL quadratically (paper §4.4) ✓@.";
  section "E9" "Section 4.4, Δ'k — our Θ(k) ratio vs KL constant";
  row "  %-4s %-26s %-20s@." "k" "ours 2·⌈(k+1)/2⌉·…" "KL (constant 9)";
  List.iter
    (fun k ->
      let _, dk' = D.delta'_k k in
      let ours = 2 * R.Fd.Lhs_analysis.mlc dk' in
      let kl = R.Fd.Lhs_analysis.kl_ratio dk' in
      row "  %-4d %-26d %-20d@." k ours kl)
    [ 1; 2; 3; 4; 5; 6 ];
  row "  shape: the gap reverses — the two approximations are incomparable ✓@."

(* ----------------------------------------------------------------- E10 *)

let e10 () =
  section "E10" "Theorem 4.12 — certified U-repair approximation quality";
  let d = D.delta_a_to_b_to_c in
  let certified = R.Urepair.U_approx.certified_ratio d in
  let ratios =
    List.filter_map
      (fun seed ->
        let rng = Rng.make seed in
        let t = dirty rng D.r3_schema d ~n:4 ~noise:0.4 ~dom:3 in
        let u, _ = R.Urepair.U_approx.best d t in
        let opt = R.Urepair.U_exact.distance d t in
        if opt = 0.0 then None else Some (Table.dist_upd u t /. opt))
      (seeds 25)
  in
  row "  Δ = {A→B, B→C}: certified ratio %g@." certified;
  row "  measured achieved/optimal: mean %.3f, max %.3f@." (mean ratios)
    (maximum ratios);
  check "never exceeds the certificate" (maximum ratios <= certified +. 1e-9);
  (* the combined algorithm (paper's closing remark of §4.4) *)
  let combined_better =
    let rng = Rng.make 123 in
    let t = dirty rng D.office_schema D.office_fds ~n:30 ~noise:0.2 ~dom:4 in
    let _, ratio = R.Urepair.U_approx.best D.office_fds t in
    ratio = 1.0
  in
  check "combined algorithm is exact on tractable components" combined_better

(* ----------------------------------------------------------------- E11 *)

let e11 () =
  section "E11" "Theorem 4.10 gadget — dist_upd(U*) = 2|E| + τ(G)";
  let module G = R.Graph.Graph in
  let module Vc = R.Graph.Vertex_cover in
  let module Vg = R.Reductions.Vc_gadget in
  row "  %-18s %-6s %-6s %-14s %-12s@." "graph" "|E|" "τ" "constructed" "2|E|+τ";
  let random_graph rng n p =
    let g = G.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Rng.bernoulli rng p then G.add_edge g u v
      done
    done;
    g
  in
  let all_ok = ref true in
  List.iteri
    (fun i seed ->
      let rng = Rng.make seed in
      let g = random_graph rng 6 0.5 in
      let vg = Vg.of_graph g in
      let tau = List.length (Vc.exact g) in
      let u = Vg.update_of_cover vg (Vc.exact g) in
      let dist = Table.dist_upd u vg.Vg.table in
      let expected = Vg.expected_distance vg ~tau in
      if not (approx_eq dist expected) then all_ok := false;
      if i < 5 then
        row "  %-18s %-6d %-6d %-14g %-12g %s@."
          (Fmt.str "random #%d" (i + 1))
          (G.n_edges g) tau dist expected
          (if approx_eq dist expected then "✓" else "✗"))
    (seeds 10);
  check "construction achieves 2|E|+τ on all 10 random graphs" !all_ok;
  (* lower bound on small graphs via exhaustive search *)
  let p3 = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let vg = Vg.of_graph p3 in
  let exact = R.Urepair.U_exact.distance ~max_cells:24 vg.Vg.fds vg.Vg.table in
  row "  P3 path: exhaustive optimal U-distance = %g (expected 2·2+1 = 5)@."
    exact;
  check "exhaustive optimum matches on P3" (approx_eq exact 5.0)

(* ----------------------------------------------------------------- E12 *)

let e12 () =
  section "E12" "Appendix A gadgets — SAT and triangle-packing reductions";
  let module Sat = R.Sat in
  let module Sg = R.Reductions.Sat_gadget in
  let rand_2cnf rng n_vars n_clauses =
    let clause () =
      let x = Rng.int rng n_vars in
      let y = (x + 1 + Rng.int rng (n_vars - 1)) mod n_vars in
      [ (if Rng.bool rng then Sat.Cnf.pos x else Sat.Cnf.neg x);
        (if Rng.bool rng then Sat.Cnf.pos y else Sat.Cnf.neg y) ]
    in
    Sat.Cnf.make ~n_vars (List.init n_clauses (fun _ -> clause ()))
  in
  let check_gadget name build formulas =
    let ok =
      List.for_all
        (fun f ->
          let _, maxsat = Sat.Max_sat.exact f in
          let (g : Sg.t) = build f in
          let opt = R.Srepair.S_exact.optimal g.Sg.fds g.Sg.table in
          Table.size g.Sg.table - Table.size opt
          = Sat.Cnf.n_clauses f * 2 - maxsat
          || Table.size opt = maxsat)
        formulas
    in
    check (name ^ ": optimal kept tuples = max satisfiable clauses") ok
  in
  let formulas =
    List.map (fun seed -> rand_2cnf (Rng.make seed) 4 6) (seeds 15)
  in
  check_gadget "Δ_A→B→C (MAX-2-SAT)" Sg.of_2cnf_chain formulas;
  check_gadget "Δ_A→C←B (MAX-2-SAT)" Sg.of_2cnf_fork formulas;
  let non_mixed =
    List.map
      (fun seed ->
        let rng = Rng.make seed in
        let clause () =
          let pol = Rng.bool rng in
          List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng 4)
          |> List.sort_uniq compare
          |> List.map (fun v -> if pol then Sat.Cnf.pos v else Sat.Cnf.neg v)
        in
        Sat.Cnf.make ~n_vars:4 (List.init 6 (fun _ -> clause ())))
      (seeds 15)
  in
  check_gadget "Δ_AB→C→B (MAX-non-mixed-SAT)" Sg.of_non_mixed non_mixed;
  (* triangle packing *)
  let module Tg = R.Reductions.Triangle_gadget in
  let module Tr = R.Graph.Triangle in
  let k222 =
    Tr.tripartite_of_parts 2 2 2
      [ (0,2);(0,3);(1,2);(1,3);(0,4);(0,5);(1,4);(1,5);(2,4);(2,5);(3,4);(3,5) ]
  in
  let gadget = Tg.of_tripartite k222 in
  let packing = Tr.max_packing k222 in
  let opt = R.Srepair.S_exact.optimal gadget.Tg.fds gadget.Tg.table in
  row "  K_2,2,2: %d triangles, max edge-disjoint packing %d, optimal kept %d@."
    (Array.length gadget.Tg.triangles)
    (List.length packing) (Table.size opt);
  check "Δ_AB↔AC↔BC gadget matches the packing number"
    (Table.size opt = List.length packing)

(* ----------------------------------------------------------------- E13 *)

let e13 () =
  section "E13" "Theorems 4.1/4.3 — decomposition and consensus elimination";
  let schema = Schema.make "R" [ "A"; "B"; "C"; "D" ] in
  let d = Fd_set.parse "A -> B; C -> D" in
  let ok =
    List.for_all
      (fun seed ->
        let rng = Rng.make seed in
        let t = dirty rng schema d ~n:4 ~noise:0.4 ~dom:3 in
        let whole = Result.get_ok (R.Urepair.Opt_u_repair.distance d t) in
        let part1 =
          Result.get_ok
            (R.Urepair.Opt_u_repair.distance (Fd_set.parse "A -> B") t)
        in
        let part2 =
          Result.get_ok
            (R.Urepair.Opt_u_repair.distance (Fd_set.parse "C -> D") t)
        in
        Float.abs (whole -. (part1 +. part2)) < 1e-9
        && Float.abs (whole -. R.Urepair.U_exact.distance ~max_cells:16 d t)
           < 1e-9)
      (seeds 15)
  in
  check "Δ = {A→B} ∪ {C→D}: whole = sum of parts = exhaustive optimum" ok;
  (* consensus elimination (Thm 4.3): {∅→B} ∪ {A→C} *)
  let d2 = Fd_set.parse "-> B; A -> C" in
  let ok2 =
    List.for_all
      (fun seed ->
        let rng = Rng.make seed in
        let t =
          Gen_table.uniform rng (Schema.make "R" [ "A"; "B"; "C" ])
            { Gen_table.default with n = 4; domain_size = 2 }
        in
        let poly = Result.get_ok (R.Urepair.Opt_u_repair.distance d2 t) in
        Float.abs (poly -. R.Urepair.U_exact.distance ~max_cells:12 d2 t)
        < 1e-9)
      (seeds 15)
  in
  check "consensus attributes eliminated optimally (majority vote)" ok2

(* ----------------------------------------------------------------- E14 *)

let e14 () =
  section "E14" "Corollaries 3.6/4.8 — chain FD sets: both repairs in PTIME";
  let rng = Rng.make 2718 in
  let schema, d = Gen_fd.chain rng ~n_attrs:5 ~n_fds:3 in
  row "  chain Δ = %a@." Fd_set.pp d;
  check "OSRSucceeds" (Simplify.succeeds d);
  check "U-repair tractable" (R.Urepair.Opt_u_repair.tractable d);
  let sizes = [ 1_000; 4_000 ] in
  let inputs =
    List.map
      (fun n ->
        let rng = Rng.make (99 + n) in
        (n, dirty rng schema d ~n ~noise:0.05 ~dom:20))
      sizes
  in
  let tests =
    List.concat_map
      (fun (n, t) ->
        [ ( Fmt.str "S n=%d" n,
            fun () -> ignore (R.Srepair.Opt_s_repair.run_exn d t) );
          ( Fmt.str "U n=%d" n,
            fun () -> ignore (R.Urepair.Opt_u_repair.solve_exn d t) ) ])
      inputs
  in
  let results = time_tests ~name:"chain" tests in
  List.iter (fun (l, ns) -> row "  %-10s %a@." l pp_ns ns) results

(* ----------------------------------------------------------------- E15 *)

let e15 () =
  section "E15" "Proposition 4.9 — {A→B, B→A}: dist_upd(U*) = dist_sub(S*)";
  let schema, d = Gen_fd.two_unary () in
  let pairs =
    List.filter_map
      (fun seed ->
        let rng = Rng.make seed in
        let t = dirty rng schema d ~n:5 ~noise:0.4 ~dom:3 in
        let s = R.Srepair.S_exact.distance d t in
        let u = Result.get_ok (R.Urepair.Opt_u_repair.distance d t) in
        let u_exact = R.Urepair.U_exact.distance d t in
        if s = 0.0 then None else Some (s, u, u_exact))
      (seeds 20)
  in
  let ok =
    List.for_all
      (fun (s, u, ue) -> Float.abs (s -. u) < 1e-9 && Float.abs (u -. ue) < 1e-9)
      pairs
  in
  row "  %d dirty instances over {A→B, B→A}@." (List.length pairs);
  check "optimal update distance equals optimal subset distance" ok

(* ----------------------------------------------------------------- E16 *)

let e16 () =
  section "E16" "Ablations — design choices called out in DESIGN.md";
  (* (a) conflict-graph construction: grouped (output-sensitive) vs naive
     all-pairs. *)
  let rng = Rng.make 31 in
  let t = dirty rng D.office_schema D.office_fds ~n:2_000 ~noise:0.05 ~dom:30 in
  let results =
    time_tests ~name:"conflict-graph"
      [ ("grouped", fun () -> ignore (R.Srepair.Conflict_graph.build D.office_fds t));
        ("naive n²", fun () -> ignore (R.Srepair.Conflict_graph.build_naive D.office_fds t)) ]
  in
  subsection "conflict-graph construction, n = 2000 (office Δ)";
  List.iter (fun (l, ns) -> row "  %-10s %s@." l (Fmt.str "%a" pp_ns ns)) results;
  (match results with
  | [ (_, grouped); (_, naive) ] ->
    row "  speedup from lhs grouping: %.1f×@." (naive /. grouped);
    check "grouped construction is faster" (grouped < naive)
  | _ -> ());
  (* Same edges either way. *)
  let e1 = R.Srepair.Conflict_graph.(n_conflicts (build D.office_fds t)) in
  let e2 = R.Srepair.Conflict_graph.(n_conflicts (build_naive D.office_fds t)) in
  check "both constructions find the same conflicts" (e1 = e2);
  (* (b) branch-and-bound lower bound. *)
  let module G = R.Graph.Graph in
  let module Vc = R.Graph.Vertex_cover in
  let g = G.create 20 in
  let rng = Rng.make 77 in
  for u = 0 to 19 do
    for v = u + 1 to 19 do
      if Rng.bernoulli rng 0.25 then G.add_edge g u v
    done
  done;
  let results =
    time_tests ~name:"vc-exact"
      [ ("with matching bound", fun () -> ignore (Vc.exact g));
        ("without bound", fun () -> ignore (Vc.exact ~matching_bound:false g)) ]
  in
  subsection "exact vertex cover branch & bound, n = 20, p = 0.25";
  List.iter (fun (l, ns) -> row "  %-22s %s@." l (Fmt.str "%a" pp_ns ns)) results;
  check "bounded and unbounded agree"
    (approx_eq
       (Vc.cover_weight g (Vc.exact g))
       (Vc.cover_weight g (Vc.exact ~matching_bound:false g)));
  (* (c) Hungarian matching vs exhaustive search. *)
  let module Bm = R.Graph.Bipartite_matching in
  let rng = Rng.make 13 in
  let w = Array.init 7 (fun _ -> Array.init 7 (fun _ -> float_of_int (Rng.int rng 10))) in
  let results =
    time_tests ~name:"matching"
      [ ("hungarian 7×7", fun () -> ignore (Bm.solve w));
        ("brute force 7×7", fun () -> ignore (Bm.brute_force w)) ]
  in
  subsection "maximum-weight bipartite matching (MarriageRep substrate)";
  List.iter (fun (l, ns) -> row "  %-18s %s@." l (Fmt.str "%a" pp_ns ns)) results;
  check "identical optimum"
    (approx_eq (snd (Bm.solve w)) (snd (Bm.brute_force w)));
  (* (d) incremental consistency index vs pairwise scan when extending a
     subset to a maximal one. *)
  let rng = Rng.make 55 in
  let t2 = dirty rng D.office_schema D.office_fds ~n:1_500 ~noise:0.05 ~dom:25 in
  let empty = Table.empty D.office_schema in
  let naive_maximal () =
    let compatible acc tuple =
      Table.for_all
        (fun _ t -> Fd_set.pair_consistent D.office_fds D.office_schema tuple t)
        acc
    in
    Table.fold
      (fun i t w acc ->
        if compatible acc t then Table.add ~id:i ~weight:w acc t else acc)
      t2 empty
  in
  let results =
    time_tests ~name:"make-maximal"
      [ ("fd-index", fun () ->
            ignore (R.Srepair.S_check.make_maximal D.office_fds ~of_:t2 empty));
        ("pairwise scan", fun () -> ignore (naive_maximal ())) ]
  in
  subsection "extending ∅ to an S-repair, n = 1500 (office Δ)";
  List.iter (fun (l, ns) -> row "  %-16s %s@." l (Fmt.str "%a" pp_ns ns)) results;
  check "identical result"
    (Table.equal
       (R.Srepair.S_check.make_maximal D.office_fds ~of_:t2 empty)
       (naive_maximal ()))

(* ----------------------------------------------------------------- E17 *)

let e17 () =
  section "E17"
    "Extensions beyond the paper (Section 5 directions) — sanity at scale";
  (* (a) counting optimal S-repairs in polynomial time on a chain set. *)
  let rng = Rng.make 404 in
  let t = dirty rng D.office_schema D.office_fds ~n:10_000 ~noise:0.08 ~dom:40 in
  let t0 = Unix.gettimeofday () in
  let count = R.Enumerate.Count.optimal_s_repairs_exn D.office_fds t in
  let dt = Unix.gettimeofday () -. t0 in
  row "  optimal-repair count at n=10000 (chain Δ): %d optima in %.0f ms@."
    count (dt *. 1000.0);
  check "counted without enumeration" (count >= 1);
  (* (b) dirtiness estimation at scale on a hard Δ. *)
  let t2 = dirty rng D.r3_schema D.delta_a_to_b_to_c ~n:2_000 ~noise:0.1 ~dom:10 in
  let e = R.Cleaning.Dirtiness.estimate D.delta_a_to_b_to_c t2 in
  row "  dirtiness at n=2000 (hard Δ): deletions in [%g, %g], updates in [%g, %g]@."
    e.R.Cleaning.Dirtiness.deletions_lower e.R.Cleaning.Dirtiness.deletions_upper
    e.R.Cleaning.Dirtiness.updates_lower e.R.Cleaning.Dirtiness.updates_upper;
  check "intervals well-formed"
    (e.R.Cleaning.Dirtiness.deletions_lower
     <= e.R.Cleaning.Dirtiness.deletions_upper
    && e.R.Cleaning.Dirtiness.updates_lower
       <= e.R.Cleaning.Dirtiness.updates_upper);
  (* (c) the voting heuristic inside the combined approximation. *)
  let certified, _ = R.Urepair.U_approx.via_s_repair D.delta_a_to_b_to_c t2 in
  let combined, _ = R.Urepair.U_approx.best D.delta_a_to_b_to_c t2 in
  row "  combined U-approx at n=2000: certified-only %g vs combined %g@."
    (Table.dist_upd certified t2) (Table.dist_upd combined t2);
  check "combined never worse"
    (Table.dist_upd combined t2 <= Table.dist_upd certified t2 +. 1e-9);
  (* Scaling of the combined approximation: the domain grows with n, so
     lhs groups keep their size and the work is linear in n. Best of three
     runs per size. *)
  let best_ms n =
    let t = dirty rng D.r3_schema D.delta_a_to_b_to_c ~n ~noise:0.05 ~dom:(n / 2) in
    let once () =
      let t0 = Unix.gettimeofday () in
      ignore (R.Urepair.U_approx.best D.delta_a_to_b_to_c t);
      (Unix.gettimeofday () -. t0) *. 1000.0
    in
    let ms = List.fold_left min infinity (List.init 3 (fun _ -> once ())) in
    record ~n ~noise:0.05 ~solver:(Printf.sprintf "u-approx-best-%dk" (n / 1000))
      ~wall_ms:ms ();
    ms
  in
  let ms2 = best_ms 2_000 in
  let ms8 = best_ms 8_000 in
  row "  U_approx.best on the hard Δ: %.1f ms at n=2000, %.1f ms at n=8000 (%.1fx)@."
    ms2 ms8 (ms8 /. ms2);
  check "U_approx.best scales near-linearly (8k/2k <= 8x)" (ms8 <= 8.0 *. ms2)

(* ----------------------------------------------------------------- E18 *)

let e18 () =
  section "E18" "Batch-runner overhead — journal, fsync, and resume replay";
  let module B = R.Batch in
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "repair_bench_e18_%d" (Unix.getpid ()))
    in
    Unix.mkdir d 0o755;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let rng = Rng.make 1818 in
  let n_jobs = 8 in
  let jobs =
    List.init n_jobs (fun i ->
        let t =
          dirty rng D.office_schema D.office_fds ~n:200 ~noise:0.1 ~dom:12
        in
        let input = Filename.concat dir (Printf.sprintf "job%d.csv" i) in
        R.Runtime.Io_fault.write_file_atomic input (Csv_io.to_string t);
        {
          B.Manifest.id = Printf.sprintf "job%d" i;
          input;
          fds = "facility -> city; facility room -> floor";
          kind = B.Manifest.S_repair;
          strategy = R.Driver.Auto;
          timeout_s = None;
          max_steps = None;
          on_budget = `Degrade;
          output = None;
        })
  in
  let manifest = { B.Manifest.jobs } in
  let journal = Filename.concat dir "journal.jsonl" in
  let t0 = Unix.gettimeofday () in
  let s = B.run ~journal manifest in
  let run_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  record ~n:n_jobs ~solver:"batch-runner" ~wall_ms:run_ms ();
  row "  %d jobs through the journaled runner: %.1f ms (%.2f ms/job)@."
    n_jobs run_ms (run_ms /. float_of_int n_jobs);
  check "every job committed" (s.B.Runner.ok = n_jobs);
  let t0 = Unix.gettimeofday () in
  let s' = B.run ~resume:true ~journal manifest in
  let resume_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  record ~n:n_jobs ~solver:"batch-resume" ~wall_ms:resume_ms ();
  row "  resume of the finished run (pure journal replay): %.1f ms@."
    resume_ms;
  check "resume replays everything, executes nothing"
    (s'.B.Runner.replayed = n_jobs && s'.B.Runner.ok = n_jobs)

(* ----------------------------------------------------------------- E19 *)

(* The observability contract (DESIGN.md §8/§10): instrumentation lives
   permanently in solver hot loops, so the disabled paths must cost one
   branch and zero allocations — measured with [Gc.allocated_bytes],
   which is deterministic, unlike a timing ratio. *)
let e19 () =
  section "E19" "Observability overhead — disabled instrumentation paths";
  let module M = R.Obs.Metrics in
  let module T = R.Obs.Trace in
  let iters = 1_000_000 in
  let budget = R.Runtime.Budget.unlimited () in
  let nothing () = () in
  let tick_loop () =
    for _ = 1 to iters do
      R.Runtime.Budget.tick ~phase:"e19" budget
    done
  in
  let span_loop () =
    for _ = 1 to iters do
      M.with_span "e19-span" nothing
    done
  in
  let incr_loop () =
    for _ = 1 to iters do
      M.incr "e19-counter"
    done
  in
  let alloc_of f =
    let a0 = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. a0
  in
  let time_of f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  (* run_experiment enables the registry; switch everything off to
     measure the disabled paths, re-enable before returning. *)
  M.disable ();
  T.disable ();
  let d_tick = alloc_of tick_loop in
  let d_span = alloc_of span_loop in
  let d_incr = alloc_of incr_loop in
  row "  disabled, %d iterations: tick %g B, with_span %g B, incr %g B@."
    iters d_tick d_span d_incr;
  (* Gc.allocated_bytes itself boxes a few floats per probe; anything
     beyond that slack means the hot path allocates. *)
  let slack = 256.0 in
  check "disabled tick is allocation-free" (d_tick <= slack);
  check "disabled with_span is allocation-free" (d_span <= slack);
  check "disabled incr is allocation-free" (d_incr <= slack);
  let off_ms = time_of tick_loop in
  record ~n:iters ~solver:"tick-disabled" ~wall_ms:off_ms ();
  M.enable ();
  M.reset ();
  (* First tick of a phase interns its counter name and creates the
     counter; after that the enabled path is allocation-free too. *)
  R.Runtime.Budget.tick ~phase:"e19" budget;
  let d_tick_on = alloc_of tick_loop in
  row "  metrics enabled (after warm-up): tick %g B@." d_tick_on;
  check "enabled tick hot path is allocation-free" (d_tick_on <= slack);
  let on_ms = time_of tick_loop in
  record ~n:iters ~solver:"tick-enabled" ~wall_ms:on_ms ();
  row "  %d ticks: disabled %.1f ms, metrics enabled %.1f ms@." iters off_ms
    on_ms

(* ----------------------------------------------------------------- E20 *)

(* Scaling sweep for the columnar table core across three workloads
   shaped like the library's hot paths:

   - chain:    common-lhs recursion skeleton — group_by on one attribute,
               then put the groups back together with union_all;
   - marriage: group_by on a two-attribute key (the lhs-marriage block
               partition);
   - conflict: conflict-graph construction for one FD plus the VC
               2-approximation.

   The full run self-checks near-linear growth: from 10k to 100k rows
   (10× the data) each workload's time may grow at most 25×. Each point
   is timed once, after a full major collection, so that it does not
   also pay the collector's debt from earlier points and experiments.
   The smoke subset keeps only the 1k point so CI can gate the records
   cheaply. *)
let e20_smoke = ref false

let e20 () =
  section "E20" "Columnar core scaling — grouping, union, conflict graph";
  let schema = Schema.make "Scale" [ "A"; "B"; "C" ] in
  let xa = Attr_set.of_list [ "A" ] in
  let xb = Attr_set.of_list [ "B" ] in
  let xab = Attr_set.of_list [ "A"; "B" ] in
  let fd_ab = Fd_set.of_list [ Fd.make xa xb ] in
  let sizes = if !e20_smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  (* (workload, n) -> ms, for the final checks *)
  let times = Hashtbl.create 16 in
  let sweep ~workload ~n ~ms =
    Hashtbl.replace times (workload, n) ms;
    record ~n ~solver:(Printf.sprintf "%s-columnar/n=%d" workload n)
      ~wall_ms:ms ();
    row "  %-10s n=%-7d %10.2f ms@." workload n ms
  in
  List.iter
    (fun n ->
      let rng = Rng.make (9000 + n) in
      (* chain/marriage instance: A has ~n/200-sized groups, B is a
         10-valued secondary key. *)
      let chain_tbl =
        Table.of_list schema
          (List.init n (fun i ->
               ( i + 1,
                 1.0,
                 Tuple.make
                   [ Value.int (Rng.in_range rng 1 (max 2 (n / 500)));
                     Value.int (Rng.in_range rng 1 10);
                     Value.int (Rng.in_range rng 1 10) ] )))
      in
      (* conflict instance: ~40-tuple A-groups, B dirty in ~10% of rows
         so the conflict graph stays sparse while the grouping work
         scales with g·n. *)
      let conflict_tbl =
        Table.of_list schema
          (List.init n (fun i ->
               ( i + 1,
                 1.0,
                 Tuple.make
                   [ Value.int (Rng.in_range rng 1 (max 2 (n / 40)));
                     Value.int (if Rng.bernoulli rng 0.1 then 2 else 1);
                     Value.int (Rng.in_range rng 1 10) ] )))
      in

      (* --- chain: group_by A then union_all --- *)
      let c_res, ms =
        time (fun () ->
            Table.group_by chain_tbl xa |> List.map snd
            |> Table.union_all schema)
      in
      check
        (Printf.sprintf "chain n=%d: the union of the groups is the table" n)
        (Table.equal c_res chain_tbl);
      sweep ~workload:"chain" ~n ~ms;

      (* --- marriage: group_by on the two-attribute key --- *)
      let groups, ms = time (fun () -> Table.group_by chain_tbl xab) in
      check
        (Printf.sprintf "marriage n=%d: the blocks cover the table" n)
        (List.fold_left (fun k (_, sub) -> k + Table.size sub) 0 groups = n);
      sweep ~workload:"marriage" ~n ~ms;

      (* --- conflict: graph for A→B plus the VC 2-approximation --- *)
      let module G = R.Graph.Graph in
      let module Vc = R.Graph.Vertex_cover in
      let module Cg = R.Srepair.Conflict_graph in
      let _, ms =
        time (fun () ->
            let g = Cg.graph (Cg.build fd_ab conflict_tbl) in
            (G.n_edges g, Vc.cover_weight g (Vc.approx2 g)))
      in
      sweep ~workload:"conflict" ~n ~ms)
    sizes;
  if not !e20_smoke then begin
    let growth workload =
      let at n = try Hashtbl.find times (workload, n) with Not_found -> nan in
      at 100_000 /. at 10_000
    in
    row "  100k/10k time ratio (linear = 10x): chain %.1fx, marriage %.1fx, \
         conflict %.1fx@."
      (growth "chain") (growth "marriage") (growth "conflict");
    check "chain 100k/10k time ratio is at most 25x" (growth "chain" <= 25.0);
    check "marriage 100k/10k time ratio is at most 25x"
      (growth "marriage" <= 25.0);
    check "conflict 100k/10k time ratio is at most 25x"
      (growth "conflict" <= 25.0)
  end

(* ----------------------------------------------------------------- E21 *)

(* Sustained serving throughput and tail latency for the admission
   engine under the Driver-backed executor. No sockets here — the event
   loop's I/O is drilled by the cram test and ci.sh; this measures the
   serving core itself in two regimes:

   - steady: admit one request, execute it, repeat — the queue never
     reaches the degrade watermark, so nothing is downgraded or shed and
     the per-request latency histogram gives the service-time tail;
   - burst: slam the queue past both watermarks, then drain — the
     above-watermark admissions must come back degraded (downgraded to
     the approximation rung), the overflow must be shed with structured
     `overloaded` errors, and the accounting identity must balance. *)
let e21_smoke = ref false

let e21 () =
  section "E21" "Serving engine — sustained throughput and tail latency";
  let module Engine = R.Serve.Engine in
  let module Protocol = R.Serve.Protocol in
  let module Hist = R.Obs.Histogram in
  let module Json = R.Obs.Json in
  let n_requests = if !e21_smoke then 120 else 600 in
  let rng = Rng.make 42 in
  let fd_sets =
    List.init 3 (fun _ -> Gen_fd.random rng ~n_attrs:4 ~n_fds:2 ~max_lhs:2)
  in
  let render_fds d =
    Fd_set.to_list d
    |> List.map (fun fd ->
           String.concat " " (Attr_set.to_list (Fd.lhs fd))
           ^ " -> "
           ^ String.concat " " (Attr_set.to_list (Fd.rhs fd)))
    |> String.concat "; "
  in
  let request i =
    let schema, d = List.nth fd_sets (i mod List.length fd_sets) in
    let tbl =
      dirty rng schema d ~n:(if !e21_smoke then 20 else 40) ~noise:0.15 ~dom:8
    in
    let line =
      Protocol.request_line
        ~id:(Json.String (Printf.sprintf "b%d" i))
        ~op:Protocol.S_repair ~fds:(render_fds d)
        ~table:(Csv_io.to_string tbl) ()
    in
    String.trim line
  in
  let corpus = List.init n_requests request in
  let cache = R.Serve.make_cache () in
  let sessions = R.Serve.make_sessions () in
  let mutex = Mutex.create () in
  let exec ~conn ~degraded req =
    R.Serve.exec ~cache ~sessions ~mutex ~conn ~degraded
      ~budget:(R.Runtime.Budget.create ~timeout_s:5.0 ())
      req
  in
  (* --- steady regime: depth never reaches the watermark --- *)
  let engine =
    Engine.create
      { Engine.default_config with queue_capacity = 64; degrade_watermark = 32 }
  in
  let latency = Hist.create () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun line ->
      (match Engine.handle_line engine ~conn:0 ~quota_used:0 line with
      | `Enqueued -> ()
      | _ -> failwith "steady request not admitted");
      match Engine.take engine with
      | Some p ->
        let s0 = Unix.gettimeofday () in
        ignore (Engine.execute engine ~exec p);
        Hist.observe latency (Unix.gettimeofday () -. s0)
      | None -> failwith "steady queue empty")
    corpus;
  let steady_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let c = Engine.counters engine in
  let p50 = Hist.quantile latency 0.5 and p99 = Hist.quantile latency 0.99 in
  row "  steady: %d requests in %.1f ms (%.0f req/s)@." n_requests steady_ms
    (float_of_int n_requests /. (steady_ms /. 1000.0));
  row "  latency p50 %.3f ms, p99 %.3f ms (cache: %d hits, %d misses)@."
    (p50 *. 1000.0) (p99 *. 1000.0)
    (R.Serve.Cache.stats cache).R.Serve.Cache.hits
    (R.Serve.Cache.stats cache).R.Serve.Cache.misses;
  check "steady: everything completed, nothing degraded or shed"
    (c.Engine.completed = n_requests && c.Engine.degraded = 0
   && c.Engine.shed = 0);
  check "steady: p99 is finite and positive"
    (Float.is_finite p99 && p99 > 0.0);
  check "steady: accounting identity" (Engine.balanced engine);
  record ~n:n_requests ~solver:"steady" ~wall_ms:steady_ms ();
  record ~n:n_requests ~solver:"steady-p99" ~wall_ms:(p99 *. 1000.0) ();
  (* --- burst regime: past both watermarks, then drain --- *)
  let capacity = 32 and watermark = 16 in
  let burst_n = 40 in
  let engine =
    Engine.create
      { Engine.default_config with
        queue_capacity = capacity;
        degrade_watermark = watermark }
  in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i line ->
      if i < burst_n then
        ignore (Engine.handle_line engine ~conn:0 ~quota_used:0 line))
    corpus;
  let rec drain () =
    match Engine.take engine with
    | Some p ->
      ignore (Engine.execute engine ~exec p);
      drain ()
    | None -> ()
  in
  drain ();
  let burst_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let c = Engine.counters engine in
  row "  burst: %d at capacity %d/watermark %d -> %d admitted, %d degraded, \
       %d shed in %.1f ms@."
    burst_n capacity watermark c.Engine.admitted c.Engine.degraded
    c.Engine.shed burst_ms;
  check "burst: overflow shed with structured errors"
    (c.Engine.shed = burst_n - capacity);
  check "burst: above-watermark admissions degraded"
    (c.Engine.degraded = capacity - watermark);
  check "burst: accepted requests all completed"
    (c.Engine.completed = c.Engine.admitted);
  check "burst: accounting identity" (Engine.balanced engine);
  record ~n:burst_n ~solver:"burst-drain" ~wall_ms:burst_ms ()

(* ----------------------------------------------------------------- E22 *)

(* Multicore scaling sweep for the domain-pool layer: E20's conflict
   workload (conflict graph + VC approximation) with the graph's edge
   discovery sharded over pools of 1/2/4/8 domains, against the
   sequential single-domain baseline. Grouping is one sequential pass at
   every width, so E20's chain and marriage shapes have no parallel row
   here. Every width must produce the same edges and cover — the pool
   buys wall-clock only. The ≥2.5× target at 4 domains is asserted only
   when the host actually has ≥4 cores
   ([Domain.recommended_domain_count]); the ratio is recorded either
   way, so single-core CI boxes keep the record without a vacuous
   failure. The smoke subset keeps the 2-domain point on the small
   instance so CI gates the records cheaply. *)
let e22_smoke = ref false

let e22 () =
  section "E22" "Domain-pool scaling — parallel hot loops vs sequential";
  let module Pool = R.Par.Pool in
  let module G = R.Graph.Graph in
  let module Vc = R.Graph.Vertex_cover in
  let module Cg = R.Srepair.Conflict_graph in
  let schema = Schema.make "Scale" [ "A"; "B"; "C" ] in
  let xa = Attr_set.of_list [ "A" ] in
  let fd_ab = Fd_set.of_list [ Fd.make xa (Attr_set.of_list [ "B" ]) ] in
  let n = if !e22_smoke then 1_000 else 100_000 in
  let domain_counts = if !e22_smoke then [ 2 ] else [ 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let rng = Rng.make (9000 + n) in
  let conflict_tbl =
    Table.of_list schema
      (List.init n (fun i ->
           ( i + 1,
             1.0,
             Tuple.make
               [ Value.int (Rng.in_range rng 1 (max 2 (n / 40)));
                 Value.int (if Rng.bernoulli rng 0.1 then 2 else 1);
                 Value.int (Rng.in_range rng 1 10) ] )))
  in
  let conflict ?runner () =
    let g = Cg.graph (Cg.build ?runner fd_ab conflict_tbl) in
    (G.n_edges g, Vc.cover_weight g (Vc.approx2 g))
  in
  (* the sequential baseline — and the reference result *)
  let (seq_edges, seq_cover), seq_ms = time conflict in
  record ~n ~solver:"conflict-seq" ~wall_ms:seq_ms ();
  row "  %d cores available; n=%d; sequential conflict %.2f ms@." cores n
    seq_ms;
  (* domains -> seq_ms /. par_ms *)
  let ratios = Hashtbl.create 4 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let runner = Pool.runner pool in
          let (p_edges, p_cover), par_ms = time (conflict ~runner) in
          check
            (Printf.sprintf "conflict @%dd: same edges, same cover" domains)
            (p_edges = seq_edges && approx_eq p_cover seq_cover);
          let ratio = seq_ms /. par_ms in
          Hashtbl.replace ratios domains ratio;
          record ~n
            ~solver:(Printf.sprintf "conflict-par/domains=%d" domains)
            ~wall_ms:par_ms ();
          row "  %-10s domains=%d   %8.2f ms   %5.2fx@." "conflict" domains
            par_ms ratio))
    domain_counts;
  if not !e22_smoke then begin
    let ratio = try Hashtbl.find ratios 4 with Not_found -> 0.0 in
    if cores >= 4 then
      check "conflict speedup at 4 domains is at least 2.5x" (ratio >= 2.5)
    else
      row "  [skip] conflict @4d speedup gate: only %d core(s) available \
           (measured %.2fx, recorded)@."
        cores ratio
  end

(* ----------------------------------------------------------------- E23 *)

(* Durability tax of the checksummed WAL (DESIGN §14): every journal
   record carries a '@len:crc32:' frame, paid on every append. The
   framing arithmetic (CRC-32 + header rendering) is timed directly, by
   framing the records' payloads, and gated in absolute terms: a few
   hundred nanoseconds per record in practice, bounded at 5 µs. The
   appends themselves are recorded without fsync and with the fsync
   durable runs take. *)
let e23_smoke = ref false

let e23 () =
  section "E23" "Journal framing overhead — checksummed records";
  let module J = R.Batch.Journal in
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "repair_bench_e23_%d" (Unix.getpid ()))
    in
    Unix.mkdir d 0o755;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let n = if !e23_smoke then 500 else 5_000 in
  let entries =
    List.init n (fun i ->
        J.Commit
          {
            job = Printf.sprintf "job%d" i;
            attempt = 1;
            status = `Ok;
            method_used = "bench";
            distance = float_of_int i;
            wall_ms = 0.0;
            counters = [ ("ticks", i) ];
          })
  in
  let best_of reps f =
    List.fold_left min infinity (List.init reps (fun _ -> f ()))
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let append_ms ~sync ~count path =
    let todo = List.filteri (fun i _ -> i < count) entries in
    (try Sys.remove path with Sys_error _ -> ());
    let w = J.open_append ~sync path in
    let ms = time_ms (fun () -> List.iter (J.append w) todo) in
    J.close w;
    ms
  in
  let framed_path = Filename.concat dir "framed.jsonl" in
  let framed_ms =
    best_of 5 (fun () -> append_ms ~sync:false ~count:n framed_path)
  in
  record ~n ~solver:"journal-append-framed" ~wall_ms:framed_ms ();
  let payloads =
    List.map (fun e -> R.Obs.Json.to_string (J.entry_to_json e)) entries
  in
  let frame_ms =
    best_of 5 (fun () ->
        time_ms (fun () ->
            List.iter
              (fun p -> ignore (Sys.opaque_identity (J.frame p)))
              payloads))
  in
  let per_record_us = frame_ms *. 1000.0 /. float_of_int n in
  row "  %d appends, no fsync: %.2f ms; framing alone %.2f ms (%.2f \
       us/record)@."
    n framed_ms frame_ms per_record_us;
  check "recovery reads back every framed record"
    (List.length (J.recover framed_path).J.entries = n);
  check "framing arithmetic costs under 5 us per record"
    (per_record_us < 5.0);
  let nd = if !e23_smoke then 100 else 500 in
  let sync_path = Filename.concat dir "framed-sync.jsonl" in
  let framed_sync_ms =
    best_of 3 (fun () -> append_ms ~sync:true ~count:nd sync_path)
  in
  record ~n:nd ~solver:"journal-append-framed-fsync" ~wall_ms:framed_sync_ms ();
  row "  %d durable appends (fsync each): %.2f ms@." nd framed_sync_ms

(* ----------------------------------------------------------------- E24 *)

(* Incremental streaming repair vs full recompute (DESIGN §16). The
   E20-shaped chain workload — one FD A → B over ~500-row A-groups — is
   churned at 0.1%: the delta tape alternates inserts of fresh ids with
   deletes of existing rows. The session ticks through the tape (each
   tick re-solves only the touched block) and one summary recombines the
   cached blocks; amortized per-update cost must sit ≥100× below a cold
   driver run on the materialized table, and the summary itself must be
   identical to that cold run. *)
let e24_smoke = ref false

let e24 () =
  section "E24"
    "Incremental streaming repair — per-update cost vs full recompute";
  let module Ss = R.Stream.Session in
  let module Delta = R.Stream.Delta in
  let schema = Schema.make "Streamed" [ "A"; "B"; "C" ] in
  let xa = Attr_set.of_list [ "A" ] and xb = Attr_set.of_list [ "B" ] in
  let d = Fd_set.of_list [ Fd.make xa xb ] in
  let n = if !e24_smoke then 10_000 else 100_000 in
  let churn = max 10 (n / 1_000) in
  let rng = Rng.make (9000 + n) in
  let random_values () =
    [ Value.int (Rng.in_range rng 1 (max 2 (n / 500)));
      Value.int (Rng.in_range rng 1 10); Value.int (Rng.in_range rng 1 10) ]
  in
  let tbl =
    Table.of_list schema
      (List.init n (fun i -> (i + 1, 1.0, Tuple.make (random_values ()))))
  in
  let deltas =
    List.init churn (fun k ->
        if k land 1 = 0 then
          Delta.Insert
            { id = Some (n + 1 + k); weight = 1.0; values = random_values () }
        else Delta.Delete { id = 1 + (k * 997 mod n) })
  in
  let session = Ss.create d tbl in
  (* Prime the block cache: the steady state being measured is a LIVE
     session — every block solved once, updates touching few of them. *)
  ignore (Ss.summary session);
  let t0 = Unix.gettimeofday () in
  List.iter (Ss.tick session) deltas;
  let s = Ss.summary session in
  let inc_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let per_update_ms = inc_ms /. float_of_int churn in
  let m = Ss.materialized session in
  let t1 = Unix.gettimeofday () in
  let cold =
    match R.Driver.s_repair_result d m with
    | Ok r -> r
    | Error _ -> failwith "E24: cold recompute failed"
  in
  let cold_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
  let speedup = cold_ms /. per_update_ms in
  record ~n ~solver:"stream-per-update" ~wall_ms:per_update_ms ();
  record ~n ~solver:"stream-full-recompute" ~wall_ms:cold_ms ();
  row
    "  n=%d churn=%d: incremental %.4f ms/update (tape %.1f ms), cold \
     recompute %.1f ms — %.0fx@."
    n churn per_update_ms inc_ms cold_ms speedup;
  check "incremental summary identical to cold recompute"
    (Table.equal s.Ss.result cold.R.Driver.result
    && s.Ss.distance = cold.R.Driver.distance
    && s.Ss.method_used = cold.R.Driver.method_used);
  if !e24_smoke then
    (* The smoke shape (20 A-groups, 10 deltas) dirties ~40% of the
       blocks, so the inherent ceiling is low; the real >=100x gate is
       the full-size point. *)
    check "streaming is >=5x cheaper per update (smoke point)"
      (speedup >= 5.0)
  else
    check "streaming is >=100x cheaper per update" (speedup >= 100.0)

(* ----------------------------------------------------------------- E25 *)

(* The layers of a CLI repair, end to end; for now the CSV IO layers and
   the U-repair layers after them. Office tables (the office FDs, domain
   1000, noise 0.05) of 10k and 100k rows are generated in process,
   rendered with [Csv_io.to_string] and read back with
   [Csv_io.parse_string]; the table read back is U-repaired with
   [Opt_u_repair.solve] (u-solve, Cor. 4.6 through OptSRepair) and its
   distance taken with [Table.dist_upd] (u-dist). Each layer is timed
   once, after a full major collection, as in E20. Rendering the table
   read back must give the same text, and from 10k to 100k rows (10× the
   data) each layer's time may grow at most 20×. Then csv-load-small
   parses a 100-row, 5-attribute table, the size of a serve request,
   10,000 times: a small load may take at most 2× the time per row of a
   10k-row load, so that per-load set-up cannot outweigh the rows. Both
   sides of that gate are timed alike, as the fastest of 10 batches of
   100,000 rows (1,000 small parses, or 10 parses of the 10k text). Not
   in the smoke subset. *)
let e25 () =
  section "E25" "End-to-end layers — CSV load and render, U-repair";
  let schema = Schema.make "T" [ "facility"; "room"; "city"; "floor" ] in
  let d = Fd_set.parse "facility -> city; facility room -> floor" in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let times = Hashtbl.create 8 in
  let layer_record layer n ms =
    Hashtbl.replace times (layer, n) ms;
    record ~n ~solver:(Printf.sprintf "%s/n=%d" layer n) ~wall_ms:ms ()
  in
  let text_10k = ref "" in
  List.iter
    (fun n ->
      let tbl =
        Gen_table.dirty (Rng.make n) schema d
          { Gen_table.default with n; noise = 0.05; domain_size = 1000 }
      in
      let text, render_ms = time (fun () -> Csv_io.to_string tbl) in
      if n = 10_000 then text_10k := text;
      let parsed, load_ms = time (fun () -> Csv_io.parse_string ~name:"T" text) in
      check
        (Printf.sprintf "n=%d: to_string (parse_string s) = s" n)
        (String.equal (Csv_io.to_string parsed) text);
      let mb = float_of_int (String.length text) /. 1048576.0 in
      let mbps ms = mb /. (ms /. 1000.0) in
      List.iter
        (fun (layer, ms) ->
          layer_record layer n ms;
          row "  %-10s n=%-7d %5.2f MB %9.2f ms %7.1f MB/s@." layer n mb ms
            (mbps ms))
        [ ("csv-load", load_ms); ("csv-render", render_ms) ];
      let u, solve_ms =
        time (fun () -> R.Urepair.Opt_u_repair.solve_exn d parsed)
      in
      let dist, dist_ms = time (fun () -> Table.dist_upd u parsed) in
      List.iter
        (fun (layer, ms) ->
          layer_record layer n ms;
          row "  %-10s n=%-7d %9.2f ms@." layer n ms)
        [ ("u-solve", solve_ms); ("u-dist", dist_ms) ];
      row "  U-repair distance at n=%d: %g@." n dist)
    [ 10_000; 100_000 ];
  List.iter
    (fun layer ->
      let growth =
        Hashtbl.find times (layer, 100_000) /. Hashtbl.find times (layer, 10_000)
      in
      row "  %s 100k/10k time ratio (linear = 10x): %.1fx@." layer growth;
      check (Printf.sprintf "%s 100k/10k time ratio is at most 20x" layer)
        (growth <= 20.0))
    [ "csv-load"; "csv-render"; "u-solve"; "u-dist" ];
  let small =
    Csv_io.to_string
      (Gen_table.dirty (Rng.make 100)
         (Schema.make "T" [ "A"; "B"; "C"; "D"; "E" ])
         (Fd_set.parse "A -> B; C -> D")
         { Gen_table.default with n = 100; noise = 0.05; domain_size = 1000 })
  in
  (* The fastest of 10 batches of [parses] parses of [text], per row. *)
  let best_per_row text ~rows ~parses =
    let batch () =
      let (), ms =
        time (fun () ->
            for _ = 1 to parses do
              ignore (Csv_io.parse_string ~name:"T" text)
            done)
      in
      ms /. float_of_int (parses * rows)
    in
    List.fold_left min infinity (List.init 10 (fun _ -> batch ()))
  in
  let per_row = best_per_row small ~rows:100 ~parses:1000
  and per_row_10k = best_per_row !text_10k ~rows:10_000 ~parses:10 in
  record ~n:100 ~solver:"csv-load-small/n=100" ~wall_ms:(per_row *. 100.0) ();
  row "  csv-load-small n=100: %.1f us per parse, %.3f us per row \
       (%.2fx the %.3f us of a 10k-row load, timed alike)@."
    (per_row *. 100_000.0) (per_row *. 1000.0) (per_row /. per_row_10k)
    (per_row_10k *. 1000.0);
  check "csv-load-small time per row is at most 2x a 10k-row load's"
    (per_row <= 2.0 *. per_row_10k)

(* ------------------------------------------------------------- runner *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8-E9", e8_e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17);
    ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22);
    ("E23", e23); ("E24", e24); ("E25", e25) ]

(* The --smoke subset: seconds-scale experiments that still cover both
   repair flavours, exact baselines, and the record-emission path. *)
let smoke_subset =
  [ "E1"; "E2"; "E3"; "E6"; "E7"; "E13"; "E15"; "E18"; "E19"; "E20"; "E21";
    "E22"; "E23"; "E24" ]

let () =
  let smoke = ref false and out = ref None and only = ref [] in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: file :: rest ->
      out := Some file;
      parse rest
    | "--only" :: name :: rest ->
      if not (List.mem_assoc name experiments) then begin
        Fmt.epr "bench: --only expects one of %s, got %s@."
          (String.concat ", " (List.map fst experiments))
          name;
        exit 2
      end;
      only := name :: !only;
      parse rest
    | "--runs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some k when k >= 1 -> set_runs k
      | _ ->
        Fmt.epr "bench: --runs expects a positive integer, got %s@." n;
        exit 2);
      parse rest
    | arg :: _ ->
      Fmt.epr
        "bench: unknown argument %s (try --smoke, --only NAME, --out FILE, \
         --runs N)@."
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  e20_smoke := !smoke;
  e21_smoke := !smoke;
  e22_smoke := !smoke;
  e23_smoke := !smoke;
  e24_smoke := !smoke;
  Fmt.pr
    "repair-bench — reproduction experiments for 'Computing Optimal Repairs \
     for Functional Dependencies' (PODS'18)%s@."
    (if !smoke then " [smoke subset]" else "");
  (* --only NAME (repeatable) runs just the named experiments, at the
     size --smoke selects, and writes records only to an explicit --out:
     a partial run must not replace the full BENCH_1.json. *)
  let selected name =
    match !only with
    | [] -> (not !smoke) || List.mem name smoke_subset
    | names -> List.mem name names
  in
  List.iter
    (fun (name, f) -> if selected name then run_experiment name f)
    experiments;
  (match (!out, !only) with
  | Some file, _ -> write_bench ~file ()
  | None, [] -> write_bench ~file:"BENCH_1.json" ()
  | None, _ :: _ -> ());
  finish ()
