open Repair_relational
open Repair_fd
open Repair_urepair
open Helpers
module D = Repair_workload.Datasets
module Gen_fd = Repair_workload.Gen_fd
module Gen_table = Repair_workload.Gen_table
module Rng = Repair_workload.Rng

(* ---------- Figure 1 / Example 2.3 ---------- *)

let test_office_update_distances () =
  let t = D.office_table in
  check_float "U1" 2.0 (Table.dist_upd D.office_u1 t);
  check_float "U2" 3.0 (Table.dist_upd D.office_u2 t);
  check_float "U3" 4.0 (Table.dist_upd D.office_u3 t);
  List.iter
    (fun u ->
      Alcotest.(check bool) "consistent update" true
        (U_check.is_consistent_update D.office_fds ~of_:t u))
    [ D.office_u1; D.office_u2; D.office_u3 ]

let test_office_optimal_u () =
  let t = D.office_table in
  let u = Opt_u_repair.solve_exn D.office_fds t in
  check_float "optimal U distance 2" 2.0 (Table.dist_upd u t);
  Alcotest.(check bool) "consistent" true (Fd_set.satisfied_by D.office_fds u);
  check_float "exact baseline agrees" 2.0
    (U_exact.distance ~max_cells:16 D.office_fds t)

(* ---------- Proposition 4.4 transforms ---------- *)

let test_transform_subset_of_update () =
  let t = D.office_table in
  (* U1 touches only tuple 1, so the derived subset drops exactly it. *)
  let s = Transform.subset_of_update ~table:t D.office_u1 in
  Alcotest.(check (list int)) "drops tuple 1" [ 2; 3; 4 ] (Table.ids s);
  Alcotest.(check bool) "dist_sub ≤ dist_upd" true
    (Table.dist_sub s t <= Table.dist_upd D.office_u1 t +. 1e-9)

let test_transform_update_of_subset () =
  let t = D.office_table in
  let s = D.office_s1 in
  let u = Transform.update_of_subset D.office_fds ~table:t s in
  Alcotest.(check bool) "consistent" true (Fd_set.satisfied_by D.office_fds u);
  (* mlc = 1 (common lhs), so cost equals the subset distance. *)
  check_float "cost = dist_sub" (Table.dist_sub s t) (Table.dist_upd u t);
  Alcotest.(check bool) "consensus rejected" true
    (try
       ignore (Transform.update_of_subset (Fd_set.parse "-> A")
                 ~table:(Table.empty D.r3_schema)
                 (Table.empty D.r3_schema));
       false
     with Invalid_argument _ -> true)

let prop_transform_44 =
  qcheck ~count:50 "Prop 4.4: subset→update within mlc factor"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = D.delta_a_to_b_to_c in
      let t =
        Gen_table.dirty rng D.r3_schema d
          { Gen_table.default with n = 8; noise = 0.3; domain_size = 3 }
      in
      let s = Repair_srepair.S_exact.optimal d t in
      let u = Transform.update_of_subset d ~table:t s in
      Fd_set.satisfied_by d u
      && Table.dist_upd u t
         <= (float_of_int (Lhs_analysis.mlc d) *. Table.dist_sub s t) +. 1e-9)

(* ---------- Corollary 4.5 sandwich ---------- *)

let prop_sandwich =
  qcheck ~count:30 "Cor 4.5: dist_sub(S*) ≤ dist_upd(U*) ≤ mlc·dist_sub(S*)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = D.delta_a_to_b_to_c in
      (* consensus-free, mlc = 2 *)
      let t =
        Gen_table.dirty rng D.r3_schema d
          { Gen_table.default with n = 4; noise = 0.4; domain_size = 3 }
      in
      let s_opt = Repair_srepair.S_exact.distance d t in
      let u_opt = U_exact.distance d t in
      s_opt <= u_opt +. 1e-9
      && u_opt <= (float_of_int (Lhs_analysis.mlc d) *. s_opt) +. 1e-9)

(* ---------- Opt_u_repair tractable cases ---------- *)

let prop_common_lhs_optimal =
  qcheck ~count:25 "common-lhs tractable case matches exhaustive baseline"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema, d = Gen_fd.common_lhs rng ~n_attrs:3 ~n_fds:2 in
      if not (Opt_u_repair.tractable d) then true
      else
        let t =
          Gen_table.dirty rng schema d
            { Gen_table.default with n = 4; noise = 0.4; domain_size = 3 }
        in
        match Opt_u_repair.solve d t with
        | Error _ -> false
        | Ok u ->
          Fd_set.satisfied_by d u
          && Table.is_update_of u t
          && consistent_distance_eq (Table.dist_upd u t) (U_exact.distance d t))

let prop_two_way_unary_optimal =
  qcheck ~count:25 "Prop 4.9: {A→B, B→A} matches baseline and S-distance"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema, d = Gen_fd.two_unary () in
      let t =
        Gen_table.dirty rng schema d
          { Gen_table.default with n = 5; noise = 0.4; domain_size = 3 }
      in
      match Opt_u_repair.solve d t with
      | Error _ -> false
      | Ok u ->
        let du = Table.dist_upd u t in
        Fd_set.satisfied_by d u
        && consistent_distance_eq du (U_exact.distance d t)
        && consistent_distance_eq du (Repair_srepair.S_exact.distance d t))

let prop_disjoint_composition =
  qcheck ~count:25 "Thm 4.1: attribute-disjoint composition is optimal"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema = Schema.make "R" [ "A"; "B"; "C"; "D" ] in
      let d = Fd_set.parse "A -> B; C -> D" in
      let t =
        Gen_table.dirty rng schema d
          { Gen_table.default with n = 4; noise = 0.4; domain_size = 3 }
      in
      match Opt_u_repair.solve d t with
      | Error _ -> false
      | Ok u ->
        Fd_set.satisfied_by d u
        && consistent_distance_eq (Table.dist_upd u t)
             (U_exact.distance ~max_cells:16 d t))

let prop_consensus_majority =
  qcheck ~count:25 "Thm 4.3/Prop B.2: consensus attributes by weighted majority"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = Fd_set.parse "-> A" in
      let t =
        Gen_table.uniform rng (Schema.make "R" [ "A"; "B" ])
          { Gen_table.default with n = 5; domain_size = 3; weighted = true }
      in
      match Opt_u_repair.solve d t with
      | Error _ -> false
      | Ok u ->
        Fd_set.satisfied_by d u
        && consistent_distance_eq (Table.dist_upd u t)
             (U_exact.distance ~max_cells:10 d t))

let test_refusals () =
  let check_hard name d =
    match Opt_u_repair.diagnose d with
    | Some { hardness = Opt_u_repair.Known_apx_hard _; _ } -> ()
    | Some { hardness = Opt_u_repair.Open_complexity; _ } ->
      Alcotest.fail (name ^ ": expected known-hard, got open")
    | None -> Alcotest.fail (name ^ ": expected refusal")
  in
  check_hard "{A→B,B→C}" (Fd_set.parse "A -> B; B -> C");
  check_hard "Δ_A↔B→C" D.delta_a_b_c_marriage;
  check_hard "Δ3" D.delta3;
  check_hard "Δ4" D.delta4;
  check_hard "zip" D.delta_zip;
  (* consensus decoration must not change the diagnosis (Thm 4.3 example) *)
  check_hard "{∅→D, AD→B, B→CD}" (Fd_set.parse "-> D; A D -> B; B -> C D")

let test_tractable_classifications () =
  List.iter
    (fun (name, d, expect) ->
      Alcotest.(check bool) name expect (Opt_u_repair.tractable d))
    [ ("office", D.office_fds, true);
      ("Δ0 (two disjoint FDs)", D.delta0, true);
      ("passport", D.delta_passport, true);
      ("single FD", Fd_set.parse "A B -> C", true);
      ("two-way unary", Fd_set.parse "A -> B; B -> A", true);
      ("consensus only", Fd_set.parse "-> A B", true);
      ("empty", Fd_set.empty, true);
      ("{A→B,B→C}", Fd_set.parse "A -> B; B -> C", false) ]

(* ---------- U_check ---------- *)

let test_u_check_minimality () =
  let t = D.office_table in
  (* U1 is a U-repair: restoring its single change breaks consistency. *)
  Alcotest.(check bool) "U1 is U-repair" true
    (U_check.is_u_repair D.office_fds ~of_:t D.office_u1);
  (* An update with a gratuitous change is not minimal. *)
  let gratuitous =
    Table.set_tuple D.office_u1 4
      (Tuple.make
         [ Value.str "Lab1"; Value.str "B36"; Value.int 3; Value.str "London" ])
  in
  Alcotest.(check bool) "gratuitous change not minimal" false
    (U_check.is_u_repair D.office_fds ~of_:t gratuitous);
  let minimized = U_check.minimize D.office_fds ~of_:t gratuitous in
  Alcotest.(check bool) "minimize restores it" true
    (U_check.is_u_repair D.office_fds ~of_:t minimized);
  check_float "minimized distance" 2.0 (Table.dist_upd minimized t)

let test_updated_cells () =
  let cells = U_check.updated_cells ~of_:D.office_table D.office_u2 in
  Alcotest.(check int) "three cells" 3 (List.length cells);
  Alcotest.(check bool) "tuple 2 floor+city, tuple 3 city" true
    (List.mem (2, 2) cells && List.mem (2, 3) cells && List.mem (3, 3) cells)

(* ---------- U_exact ---------- *)

let test_u_exact_consistent_input () =
  let t = D.office_s1 in
  Alcotest.check table "already consistent: unchanged" t
    (U_exact.optimal D.office_fds t)

let test_u_exact_needs_fresh () =
  (* {A→B, B→A}: (1,1) (1,2) (2,2). Best: 1 cell. With fresh disabled the
     optimum is still 1 here; construct a case where active-domain-only
     changes the answer: A→B with tuples (1,1),(1,2): both fixable with 1
     cell from the active domain. Sanity only. *)
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let t = Table.of_list s [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2) ] in
  check_float "one cell suffices" 1.0 (U_exact.distance (Fd_set.parse "A -> B") t);
  check_float "active-domain-only agrees here" 1.0
    (U_exact.distance ~fresh:0 (Fd_set.parse "A -> B") t)

let test_restricted_domain_strictly_worse () =
  (* Section 5 discussion: the paper's updates draw from an infinite
     domain. Here a fresh constant on the lhs repairs in one cell, while
     active-domain-only updates need two: (1,1,1) vs (1,2,2) under
     {A→B, B→C} — any in-domain fix of the A-group creates or keeps a
     B-group violation. *)
  let s = Schema.make "R" [ "A"; "B"; "C" ] in
  let mk a b c = Tuple.make [ Value.int a; Value.int b; Value.int c ] in
  let t = Table.of_tuples s [ mk 1 1 1; mk 1 2 2 ] in
  let d = Fd_set.parse "A -> B; B -> C" in
  check_float "with fresh constants: 1 cell" 1.0 (U_exact.distance d t);
  check_float "active domain only: 2 cells" 2.0 (U_exact.distance ~fresh:0 d t)

let test_u_exact_weighted () =
  (* Updating the light tuple is preferred. *)
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let t = Table.of_list s [ (1, 5.0, mk 1 1); (2, 1.0, mk 1 2) ] in
  check_float "light tuple updated" 1.0 (U_exact.distance (Fd_set.parse "A -> B") t)

(* ---------- U_approx ---------- *)

let prop_u_approx_certified =
  qcheck ~count:30 "U_approx.best stays within its certified ratio"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = D.delta_a_to_b_to_c in
      let t =
        Gen_table.dirty rng D.r3_schema d
          { Gen_table.default with n = 4; noise = 0.4; domain_size = 3 }
      in
      let u, ratio = U_approx.best d t in
      let opt = U_exact.distance d t in
      Fd_set.satisfied_by d u
      && consistent_distance_eq ratio (U_approx.certified_ratio d)
      && Table.dist_upd u t <= (ratio *. opt) +. 1e-9)

let prop_u_approx_exact_when_tractable =
  qcheck ~count:20 "U_approx.best is exact (ratio 1) on tractable sets"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.make seed in
      let t =
        Gen_table.dirty rng D.office_schema D.office_fds
          { Gen_table.default with n = 5; noise = 0.3; domain_size = 3 }
      in
      let u, ratio = U_approx.best D.office_fds t in
      ratio = 1.0
      && Fd_set.satisfied_by D.office_fds u
      && consistent_distance_eq (Table.dist_upd u t)
           (Result.get_ok (Opt_u_repair.distance D.office_fds t)))

let prop_heuristic_always_consistent =
  qcheck ~count:40 "voting heuristic returns a consistent update"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let d = D.delta_a_to_b_to_c in
      let t =
        Gen_table.dirty rng D.r3_schema d
          { Gen_table.default with n = 10; noise = 0.3; domain_size = 3;
            weighted = true }
      in
      let u = U_heuristic.local_repair d t in
      Fd_set.satisfied_by d u && Table.is_update_of u t)

(* The voting heuristic with one [Table.set_tuple] per changed tuple and
   the all-pairs violation scan: the oracle the batched
   [U_heuristic.local_repair] must reproduce table for table. *)
module Per_tuple_heuristic = struct
  let vote_sweep d tbl =
    let schema = Table.schema tbl in
    List.fold_left
      (fun tbl fd ->
        let groups = Table.group_by tbl (Fd.lhs fd) in
        List.fold_left
          (fun tbl (_, sub) ->
            let totals = Hashtbl.create 8 in
            Table.iter
              (fun _ t w ->
                let key = Tuple.project schema t (Fd.rhs fd) in
                let prev = Option.value (Hashtbl.find_opt totals key) ~default:0.0 in
                Hashtbl.replace totals key (prev +. w))
              sub;
            let majority =
              Hashtbl.fold
                (fun key w best ->
                  match best with
                  | Some (_, bw) when bw >= w -> best
                  | _ -> Some (key, w))
                totals None
            in
            match majority with
            | None -> tbl
            | Some (rhs_values, _) ->
              let rhs_attrs =
                Schema.indices_of schema (Fd.rhs fd)
                |> List.map (Schema.attribute_at schema)
              in
              List.fold_left
                (fun tbl i ->
                  let t = Table.tuple tbl i in
                  let t' =
                    List.fold_left2
                      (fun acc a v -> Tuple.set_attr schema acc a v)
                      t rhs_attrs (Tuple.values rhs_values)
                  in
                  if Tuple.equal t t' then tbl else Table.set_tuple tbl i t')
                tbl (Table.ids sub))
          tbl groups)
      tbl (Fd_set.to_list d)

  let isolate_violators d tbl =
    let violators =
      violations_all_pairs d tbl
      |> List.concat_map (fun (i, j, _) -> [ i; j ])
      |> List.sort_uniq compare
    in
    if violators = [] then tbl
    else begin
      let schema = Table.schema tbl in
      let cover = Lhs_analysis.lhs_cover d in
      let supply = Value.Supply.starting_above (Table.all_values tbl) in
      List.fold_left
        (fun tbl i ->
          let fresh = Value.Supply.next supply in
          let t =
            Attr_set.fold
              (fun a acc -> Tuple.set_attr schema acc a fresh)
              cover (Table.tuple tbl i)
          in
          Table.set_tuple tbl i t)
        tbl violators
    end

  let local_repair ?(max_rounds = 4) d tbl =
    let d = Fd_set.normalize d in
    if Fd_set.is_empty d then tbl
    else begin
      let rec rounds n tbl =
        if n = 0 || Fd_set.satisfied_by d tbl then tbl
        else rounds (n - 1) (vote_sweep d tbl)
      in
      isolate_violators d (rounds max_rounds tbl)
    end
end

let wide_schema = Schema.make "R" [ "A"; "B"; "C"; "D" ]

(* Weighted tables over a domain of two values, so votes tie often: a
   random consensus-free Δ (multi-attribute and trivial FDs included) on
   a small table, or the hard {A → B, B → C} on a generated dirty one. *)
let gen_heuristic_case =
  QCheck2.Gen.(
    oneof
      [ pair
          (list_size (int_range 1 3) (gen_any_fd ~consensus:false wide_schema)
          |> map Fd_set.of_list)
          (gen_table ~dom:2 ~max_size:12 ~weighted:true wide_schema);
        map
          (fun seed ->
            let rng = Rng.make seed in
            let d = D.delta_a_to_b_to_c in
            ( d,
              Gen_table.dirty rng D.r3_schema d
                { Gen_table.default with n = 40; noise = 0.3; domain_size = 2;
                  weighted = true } ))
          (int_range 0 100_000) ])

let prop_heuristic_matches_per_tuple max_rounds =
  qcheck ~count:300
    ~print:(fun (d, t) -> Fmt.str "%a@.%a" Fd_set.pp d Table.pp t)
    (Printf.sprintf "batched heuristic = per-tuple oracle, max_rounds %d"
       max_rounds)
    gen_heuristic_case
    (fun (d, t) ->
      Table.equal
        (U_heuristic.local_repair ~max_rounds d t)
        (Per_tuple_heuristic.local_repair ~max_rounds d t))

let test_heuristic_votes_majority () =
  (* Two tuples say B=1, one says B=2: voting fixes the minority cell. *)
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let t =
    Table.of_list s [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 1); (3, 1.0, mk 1 2) ]
  in
  let u = U_heuristic.local_repair (Fd_set.parse "A -> B") t in
  check_float "one cell changed" 1.0 (Table.dist_upd u t);
  Alcotest.check tuple "minority adopted majority" (mk 1 1) (Table.tuple u 3)

let test_heuristic_helps_combined () =
  (* On voting-friendly instances the combined algorithm should do at least
     as well as the certified algorithm alone. *)
  let d = D.delta_a_to_b_to_c in
  let rng = Rng.make 77 in
  for _ = 1 to 10 do
    let t =
      Gen_table.dirty rng D.r3_schema d
        { Gen_table.default with n = 12; noise = 0.2; domain_size = 3 }
    in
    let certified, _ = U_approx.via_s_repair d t in
    let combined, _ = U_approx.best d t in
    Alcotest.(check bool) "combined ≤ certified" true
      (Table.dist_upd combined t <= Table.dist_upd certified t +. 1e-9)
  done

let test_certified_ratio_components () =
  (* Theorem 4.1 refinement: a disjoint union takes the maximum of its
     parts, not 2·mlc of the whole (10 for the last set). *)
  let ratio s = U_approx.certified_ratio (Fd_set.parse s) in
  check_float "one hard part" 4.0 (ratio "A -> B; B -> C");
  check_float "a tractable part adds nothing" 4.0
    (ratio "A -> B; B -> C; D -> E");
  check_float "disjoint union" 6.0
    (ratio "A -> B; B -> C; D -> E; E -> F; F -> G");
  check_float "trivial" 1.0 (U_approx.certified_ratio Fd_set.empty)

let test_ratio_families () =
  (* Section 4.4: our ratio on Δ_k is 2(k+2)?  mlc(Δ_k): lhs's are
     {A0..Ak}, {B0}, {B1}, ..., {Bk} — pairwise disjoint except nothing
     shared, so a cover needs one per disjoint lhs... each {Bi} needs Bi,
     plus one Ai: mlc = k+2, ratio 2(k+2). *)
  List.iter
    (fun k ->
      let _, dk = D.delta_k k in
      Alcotest.(check int)
        (Printf.sprintf "mlc Δ%d = k+2" k)
        (k + 2) (Lhs_analysis.mlc dk))
    [ 1; 2; 3 ];
  (* Δ'_k: ratio Θ(k) vs KL constant 9. *)
  List.iter
    (fun k ->
      let _, dk' = D.delta'_k k in
      Alcotest.(check int)
        (Printf.sprintf "KL Δ'%d constant" k)
        9 (Lhs_analysis.kl_ratio dk'))
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "urepair"
    [ ( "figure 1",
        [ Alcotest.test_case "update distances (Ex 2.3)" `Quick test_office_update_distances;
          Alcotest.test_case "optimal U-repair" `Quick test_office_optimal_u ] );
      ( "transform (Prop 4.4)",
        [ Alcotest.test_case "update→subset" `Quick test_transform_subset_of_update;
          Alcotest.test_case "subset→update" `Quick test_transform_update_of_subset;
          prop_transform_44 ] );
      ( "sandwich (Cor 4.5)", [ prop_sandwich ] );
      ( "tractable cases",
        [ prop_common_lhs_optimal;
          prop_two_way_unary_optimal;
          prop_disjoint_composition;
          prop_consensus_majority;
          Alcotest.test_case "refusals are diagnosed" `Quick test_refusals;
          Alcotest.test_case "tractability table" `Quick test_tractable_classifications ] );
      ( "u_check",
        [ Alcotest.test_case "minimality" `Quick test_u_check_minimality;
          Alcotest.test_case "updated cells" `Quick test_updated_cells ] );
      ( "u_exact",
        [ Alcotest.test_case "consistent input" `Quick test_u_exact_consistent_input;
          Alcotest.test_case "fresh values" `Quick test_u_exact_needs_fresh;
          Alcotest.test_case "restricted domain (§5)" `Quick
            test_restricted_domain_strictly_worse;
          Alcotest.test_case "weighted" `Quick test_u_exact_weighted ] );
      ( "approximation",
        [ prop_u_approx_certified;
          prop_u_approx_exact_when_tractable;
          prop_heuristic_always_consistent;
          prop_heuristic_matches_per_tuple 0;
          prop_heuristic_matches_per_tuple 1;
          prop_heuristic_matches_per_tuple 4;
          Alcotest.test_case "voting heuristic" `Quick test_heuristic_votes_majority;
          Alcotest.test_case "combined beats certified" `Quick test_heuristic_helps_combined;
          Alcotest.test_case "certified ratio of a disjoint union" `Quick
            test_certified_ratio_components;
          Alcotest.test_case "ratio families (§4.4)" `Quick test_ratio_families ] ) ]
