open Repair_relational
open Repair_fd
open Helpers

let aset = Attr_set.of_list

(* ---------- Fd ---------- *)

let test_fd_parse () =
  let fd = Fd.parse "A B -> C" in
  Alcotest.check attr_set "lhs" (aset [ "A"; "B" ]) (Fd.lhs fd);
  Alcotest.check attr_set "rhs" (aset [ "C" ]) (Fd.rhs fd);
  let consensus = Fd.parse "-> C D" in
  Alcotest.(check bool) "consensus" true (Fd.is_consensus consensus);
  Alcotest.check attr_set "consensus rhs" (aset [ "C"; "D" ]) (Fd.rhs consensus);
  let arrow = Fd.parse "facility → city" in
  Alcotest.check attr_set "utf8 arrow lhs" (aset [ "facility" ]) (Fd.lhs arrow);
  Alcotest.(check bool) "bad arrow count" true
    (try ignore (Fd.parse "A -> B -> C"); false with Failure _ -> true);
  Alcotest.(check bool) "empty rhs" true
    (try ignore (Fd.parse "A -> "); false with Failure _ -> true)

let test_fd_predicates () =
  Alcotest.(check bool) "trivial" true (Fd.is_trivial (Fd.parse "A B -> A"));
  Alcotest.(check bool) "nontrivial" false (Fd.is_trivial (Fd.parse "A -> B"));
  Alcotest.(check bool) "unary" true (Fd.is_unary (Fd.parse "A -> B C"));
  Alcotest.(check bool) "not unary" false (Fd.is_unary (Fd.parse "A B -> C"))

let test_fd_split_minus () =
  let fd = Fd.parse "A -> B C" in
  Alcotest.(check int) "split count" 2 (List.length (Fd.split fd));
  let m = Fd.minus (Fd.parse "A B -> C D") (aset [ "B"; "C" ]) in
  Alcotest.check fd_set "minus" (Fd_set.of_list [ Fd.parse "A -> D" ])
    (Fd_set.of_list [ m ])

let test_fd_holds_on () =
  let s = Schema.make "R" [ "A"; "B" ] in
  let mk a b = Tuple.make [ Value.int a; Value.int b ] in
  let fd = Fd.parse "A -> B" in
  Alcotest.(check bool) "violating pair" false (Fd.holds_on s (mk 1 1) (mk 1 2) fd);
  Alcotest.(check bool) "agreeing pair" true (Fd.holds_on s (mk 1 1) (mk 1 1) fd);
  Alcotest.(check bool) "different lhs" true (Fd.holds_on s (mk 1 1) (mk 2 2) fd)

(* ---------- Fd_set: closure & entailment ---------- *)

let test_closure () =
  let d = Fd_set.parse "A -> B; B -> C" in
  Alcotest.check attr_set "cl(A)" (aset [ "A"; "B"; "C" ])
    (Fd_set.closure_of d (aset [ "A" ]));
  Alcotest.check attr_set "cl(B)" (aset [ "B"; "C" ])
    (Fd_set.closure_of d (aset [ "B" ]));
  Alcotest.check attr_set "cl(C)" (aset [ "C" ]) (Fd_set.closure_of d (aset [ "C" ]));
  Alcotest.check attr_set "cl(∅) empty" Attr_set.empty (Fd_set.consensus_attrs d)

let test_closure_consensus_chain () =
  (* ∅ → A and A → C make C a consensus attribute too. *)
  let d = Fd_set.parse "-> A; A -> C" in
  Alcotest.check attr_set "cl(∅)" (aset [ "A"; "C" ]) (Fd_set.consensus_attrs d);
  Alcotest.(check bool) "not consensus free" false (Fd_set.is_consensus_free d)

let test_entails_equivalent () =
  let d = Fd_set.parse "A -> B; B -> C" in
  Alcotest.(check bool) "entails A->C" true (Fd_set.entails d (Fd.parse "A -> C"));
  Alcotest.(check bool) "entails trivial" true (Fd_set.entails d (Fd.parse "A B -> A"));
  Alcotest.(check bool) "no reverse" false (Fd_set.entails d (Fd.parse "C -> A"));
  let d2 = Fd_set.parse "A -> B C; B -> C" in
  Alcotest.(check bool) "equivalent" true (Fd_set.equivalent d d2);
  Alcotest.(check bool) "not equivalent" false
    (Fd_set.equivalent d (Fd_set.parse "A -> B"))

(* ---------- Fd_set: structure ---------- *)

let test_common_lhs () =
  Alcotest.(check (option string)) "office" (Some "facility")
    (Fd_set.common_lhs (Fd_set.parse "facility -> city; facility room -> floor"));
  Alcotest.(check (option string)) "none" None
    (Fd_set.common_lhs (Fd_set.parse "A -> B; B -> C"));
  Alcotest.(check (option string)) "empty set" None (Fd_set.common_lhs Fd_set.empty)

let test_consensus_fd () =
  let d = Fd_set.parse "-> B; A -> C" in
  (match Fd_set.consensus_fd d with
  | Some fd -> Alcotest.check attr_set "rhs B" (aset [ "B" ]) (Fd.rhs fd)
  | None -> Alcotest.fail "expected consensus FD");
  Alcotest.(check bool) "none" true
    (Fd_set.consensus_fd (Fd_set.parse "A -> B") = None)

let test_lhs_marriage () =
  (match Fd_set.lhs_marriage (Fd_set.parse "A -> B; B -> A; B -> C") with
  | Some (x1, x2) ->
    Alcotest.(check bool) "A,B sides" true
      (Attr_set.equal x1 (aset [ "A" ]) && Attr_set.equal x2 (aset [ "B" ])
       || Attr_set.equal x1 (aset [ "B" ]) && Attr_set.equal x2 (aset [ "A" ]))
  | None -> Alcotest.fail "expected marriage");
  Alcotest.(check bool) "employee marriage" true
    (Fd_set.lhs_marriage
       (Fd_set.parse
          "ssn -> first; ssn -> last; first last -> ssn; ssn -> address; ssn \
           office -> phone; ssn office -> fax")
     <> None);
  Alcotest.(check bool) "no marriage in chain-of-two" true
    (Fd_set.lhs_marriage (Fd_set.parse "A -> B; B -> C") = None);
  (* closures must coincide *)
  Alcotest.(check bool) "A->B,B->C closures differ" true
    (Fd_set.lhs_marriage (Fd_set.parse "A -> B; C -> D") = None)

let test_is_chain () =
  Alcotest.(check bool) "office is chain" true
    (Fd_set.is_chain (Fd_set.parse "facility -> city; facility room -> floor"));
  Alcotest.(check bool) "incomparable lhs" false
    (Fd_set.is_chain (Fd_set.parse "A -> B; C -> D"));
  Alcotest.(check bool) "empty chain" true (Fd_set.is_chain Fd_set.empty)

let test_local_minima () =
  let d = Fd_set.parse "A B -> C; A -> D; B -> E" in
  let minima = Fd_set.local_minima d in
  Alcotest.(check int) "two minima" 2 (List.length minima);
  Alcotest.(check bool) "A and B" true
    (List.exists (Attr_set.equal (aset [ "A" ])) minima
     && List.exists (Attr_set.equal (aset [ "B" ])) minima)

let test_components () =
  let d = Fd_set.parse "A -> B; B -> C; D -> E; F G -> H" in
  let comps = Fd_set.components d in
  Alcotest.(check int) "three components" 3 (List.length comps);
  let sizes = List.map Fd_set.size comps |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 1; 2 ] sizes;
  (* bridging FD merges components *)
  let d2 = Fd_set.add (Fd.parse "C -> D") d in
  Alcotest.(check int) "bridge merges" 2 (List.length (Fd_set.components d2))

let test_normalize () =
  let d = Fd_set.parse "A -> B C; B -> B" in
  let n = Fd_set.normalize d in
  Alcotest.(check int) "split & dropped trivial" 2 (Fd_set.size n);
  Alcotest.(check bool) "all singleton rhs" true
    (List.for_all (fun fd -> Attr_set.cardinal (Fd.rhs fd) = 1) (Fd_set.to_list n))

(* ---------- satisfaction ---------- *)

let office = Repair_workload.Datasets.office_table
let office_fds = Repair_workload.Datasets.office_fds

let test_satisfaction () =
  Alcotest.(check bool) "T violates" false (Fd_set.satisfied_by office_fds office);
  Alcotest.(check bool) "S1 ok" true
    (Fd_set.satisfied_by office_fds Repair_workload.Datasets.office_s1);
  Alcotest.(check bool) "U2 ok" true
    (Fd_set.satisfied_by office_fds Repair_workload.Datasets.office_u2);
  Alcotest.(check bool) "empty table" true
    (Fd_set.satisfied_by office_fds (Table.empty (Table.schema office)))

let test_violations () =
  let v = Fd_set.violations office_fds office in
  (* tuples 1,2 violate both FDs; 1,3 violate facility→city *)
  Alcotest.(check int) "three violations" 3 (List.length v);
  Alcotest.(check bool) "pair (1,2) twice" true
    (List.length (List.filter (fun (i, j, _) -> i = 1 && j = 2) v) = 2)

let test_violations_small_tables () =
  (* Fewer than two rows cannot hold a violating pair; the schema is not
     consulted, so even an FD over unknown attributes yields []. *)
  let d = Fd_set.parse "X -> Y" in
  let one =
    Table.of_tuples small_schema
      [ Tuple.make [ Value.int 1; Value.int 2; Value.int 3 ] ]
  in
  Alcotest.(check int) "one row" 0 (List.length (Fd_set.violations d one));
  Alcotest.(check int) "empty" 0
    (List.length (Fd_set.violations d (Table.empty small_schema)))

let wide_schema = Schema.make "R" [ "A"; "B"; "C"; "D" ]

(* Small domains make duplicate tuples and shared lhs values common;
   [mask] optionally turns the table into a view with id gaps. *)
let gen_violations_case =
  QCheck2.Gen.(
    let* fds = list_size (int_range 1 4) (gen_any_fd wide_schema) in
    let* t = gen_table ~dom:2 ~max_size:9 wide_schema in
    let* mask = int_range 0 1023 in
    let t =
      if mask land 1 = 0 then t
      else Table.select t (fun i _ -> mask land (1 lsl i) <> 0)
    in
    return (Fd_set.of_list fds, t))

let print_case (d, t) = Fmt.str "%a@.%a" Fd_set.pp d Table.pp t

let prop_violations_match_all_pairs =
  qcheck ~count:1000 ~print:print_case
    "grouped violations = all-pairs scan, order included" gen_violations_case
    (fun (d, t) ->
      same_violations (Fd_set.violations d t) (violations_all_pairs d t))

(* ---------- Cover ---------- *)

let test_minimal_cover () =
  let d = Fd_set.parse "A -> B C; B -> C; A -> B" in
  let m = Cover.minimal d in
  Alcotest.(check bool) "equivalent" true (Fd_set.equivalent d m);
  Alcotest.(check int) "redundancy removed" 2 (Fd_set.size m)

let test_extraneous_lhs () =
  let d = Fd_set.parse "A -> B; A B -> C" in
  let m = Cover.minimal d in
  Alcotest.(check bool) "equivalent" true (Fd_set.equivalent d m);
  Alcotest.(check bool) "AB -> C shrunk to A -> C" true
    (Fd_set.mem (Fd.parse "A -> C") m)

let test_keys () =
  let d = Fd_set.parse "A -> B; B -> C" in
  let ks = Cover.keys d ~attrs:(aset [ "A"; "B"; "C" ]) in
  Alcotest.(check int) "single key" 1 (List.length ks);
  Alcotest.check attr_set "A is the key" (aset [ "A" ]) (List.hd ks);
  let d2 = Fd_set.parse "A -> B; B -> A" in
  let ks2 = Cover.keys d2 ~attrs:(aset [ "A"; "B"; "C" ]) in
  Alcotest.(check int) "two keys" 2 (List.length ks2)

(* ---------- Lhs_analysis ---------- *)

let test_mlc () =
  Alcotest.(check int) "common lhs" 1
    (Lhs_analysis.mlc (Fd_set.parse "A B -> C; A -> D"));
  Alcotest.(check int) "disjoint" 2
    (Lhs_analysis.mlc (Fd_set.parse "A -> B; C -> D"));
  Alcotest.(check bool) "consensus rejected" true
    (try ignore (Lhs_analysis.mlc (Fd_set.parse "-> A")); false
     with Invalid_argument _ -> true)

let test_mfs_mci_families () =
  (* Section 4.4: MFS(Δk) = k+1, MCI(Δk) = k; MFS(Δ'k) = 2, MCI(Δ'k) = 1. *)
  List.iter
    (fun k ->
      let _, dk = Repair_workload.Datasets.delta_k k in
      Alcotest.(check int) (Printf.sprintf "MFS Δ%d" k) (k + 1)
        (Lhs_analysis.mfs dk);
      (* The paper states MCI(Δk) = k via A0's core implicant {B1..Bk};
         for k = 1 attribute C needs the size-2 core implicant {B0, A1},
         so MCI = max(k, 2). The Θ(k²) claim is unaffected. *)
      Alcotest.(check int) (Printf.sprintf "MCI Δ%d" k) (max k 2)
        (Lhs_analysis.mci dk);
      Alcotest.(check int) (Printf.sprintf "KL ratio Δ%d" k)
        ((max k 2 + 2) * ((2 * (k + 1)) - 1))
        (Lhs_analysis.kl_ratio dk);
      let _, dk' = Repair_workload.Datasets.delta'_k k in
      Alcotest.(check int) (Printf.sprintf "MFS Δ'%d" k) 2 (Lhs_analysis.mfs dk');
      Alcotest.(check int) (Printf.sprintf "MCI Δ'%d" k) 1 (Lhs_analysis.mci dk');
      Alcotest.(check int) (Printf.sprintf "KL ratio Δ'%d" k) 9
        (Lhs_analysis.kl_ratio dk');
      Alcotest.(check int)
        (Printf.sprintf "mlc Δ'%d" k)
        ((k + 2) / 2)
        (Lhs_analysis.mlc dk'))
    [ 1; 2; 3; 4 ]

let test_implicants () =
  let d = Fd_set.parse "A -> C; B -> C" in
  let imps = Lhs_analysis.implicants d "C" in
  Alcotest.(check int) "two implicants" 2 (List.length imps);
  let core = Lhs_analysis.min_core_implicant d "C" in
  Alcotest.(check int) "core hits both" 2 (Attr_set.cardinal core);
  (* A0's core implicant in Δk is {B1..Bk} (paper, Section 4.4). *)
  let _, d2 = Repair_workload.Datasets.delta_k 2 in
  Alcotest.check attr_set "Δ2 core implicant of A0" (aset [ "B1"; "B2" ])
    (Lhs_analysis.min_core_implicant d2 "A0")

(* ---------- Armstrong relations ---------- *)

let test_armstrong_known () =
  let d = Fd_set.parse "A -> B" in
  let t = Armstrong.relation d small_schema in
  Alcotest.(check bool) "satisfies A→B" true (Fd_set.satisfied_by d t);
  Alcotest.(check bool) "satisfies entailed A→B (trivial family)" true
    (Fd_set.satisfied_by (Fd_set.parse "A B -> B") t);
  Alcotest.(check bool) "violates B→A" false
    (Fd_set.satisfied_by (Fd_set.parse "B -> A") t);
  Alcotest.(check bool) "violates A→C" false
    (Fd_set.satisfied_by (Fd_set.parse "A -> C") t);
  Alcotest.(check bool) "duplicate free" true (Table.is_duplicate_free t)

let test_closed_sets () =
  let d = Fd_set.parse "A -> B" in
  let cs = Armstrong.closed_sets d small_schema in
  (* closed: ∅, B, C, BC, AB, ABC — not A, AC (closure adds B). *)
  Alcotest.(check int) "six closed sets" 6 (List.length cs);
  Alcotest.(check bool) "A not closed" false
    (List.exists (Attr_set.equal (aset [ "A" ])) cs)

let prop_armstrong_exact =
  qcheck ~count:60 "Armstrong relation satisfies exactly the entailed FDs"
    QCheck2.Gen.(pair (gen_fd_set ~max_fds:3 small_schema) (gen_fd small_schema))
    (fun (d, probe) ->
      let t = Armstrong.relation d small_schema in
      Fd_set.satisfied_by (Fd_set.of_list [ probe ]) t = Fd_set.entails d probe)

(* ---------- properties ---------- *)

let prop_closure_monotone_idempotent =
  qcheck "closure is monotone, extensive and idempotent"
    QCheck2.Gen.(pair (gen_fd_set small_schema) (int_range 0 7))
    (fun (d, mask) ->
      let attrs = Schema.attributes small_schema in
      let x =
        Attr_set.of_list (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) attrs)
      in
      let cl = Fd_set.closure_of d x in
      Attr_set.subset x cl
      && Attr_set.equal cl (Fd_set.closure_of d cl)
      && Attr_set.subset cl (Fd_set.closure_of d (Attr_set.add "A" x)))

let prop_minimal_cover_equivalent =
  qcheck "minimal cover preserves the closure" (gen_fd_set ~max_fds:4 small_schema)
    (fun d -> Fd_set.equivalent d (Cover.minimal d))

let prop_satisfaction_matches_violations =
  qcheck "satisfied_by agrees with violations"
    QCheck2.Gen.(pair (gen_fd_set small_schema) (gen_table small_schema))
    (fun (d, t) -> Fd_set.satisfied_by d t = (Fd_set.violations d t = []))

let prop_pair_consistent_symmetric =
  qcheck "pair consistency is symmetric"
    QCheck2.Gen.(
      triple (gen_fd_set small_schema) (gen_tuple small_schema)
        (gen_tuple small_schema))
    (fun (d, t1, t2) ->
      Fd_set.pair_consistent d small_schema t1 t2
      = Fd_set.pair_consistent d small_schema t2 t1)

let prop_minus_removes_attrs =
  qcheck "Δ − X mentions no attribute of X" (gen_fd_set small_schema) (fun d ->
      let x = aset [ "A" ] in
      Attr_set.disjoint (Fd_set.attrs (Fd_set.minus d x)) x)

let prop_components_partition =
  qcheck "components partition Δ and are attribute-disjoint"
    (gen_fd_set ~max_fds:4 small_schema)
    (fun d ->
      let comps = Fd_set.components d in
      let total = List.fold_left (fun acc c -> acc + Fd_set.size c) 0 comps in
      let rec pairwise_disjoint = function
        | [] -> true
        | c :: rest ->
          List.for_all
            (fun c' -> Attr_set.disjoint (Fd_set.attrs c) (Fd_set.attrs c'))
            rest
          && pairwise_disjoint rest
      in
      total = Fd_set.size d && pairwise_disjoint comps)

let () =
  Alcotest.run "fd"
    [ ( "fd",
        [ Alcotest.test_case "parse" `Quick test_fd_parse;
          Alcotest.test_case "predicates" `Quick test_fd_predicates;
          Alcotest.test_case "split/minus" `Quick test_fd_split_minus;
          Alcotest.test_case "holds_on" `Quick test_fd_holds_on ] );
      ( "closure",
        [ Alcotest.test_case "basic" `Quick test_closure;
          Alcotest.test_case "consensus chain" `Quick test_closure_consensus_chain;
          Alcotest.test_case "entails/equivalent" `Quick test_entails_equivalent ] );
      ( "structure",
        [ Alcotest.test_case "common lhs" `Quick test_common_lhs;
          Alcotest.test_case "consensus fd" `Quick test_consensus_fd;
          Alcotest.test_case "lhs marriage" `Quick test_lhs_marriage;
          Alcotest.test_case "chain" `Quick test_is_chain;
          Alcotest.test_case "local minima" `Quick test_local_minima;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "normalize" `Quick test_normalize ] );
      ( "satisfaction",
        [ Alcotest.test_case "office" `Quick test_satisfaction;
          Alcotest.test_case "violations" `Quick test_violations;
          Alcotest.test_case "violations on 0-1 rows" `Quick
            test_violations_small_tables;
          prop_violations_match_all_pairs ] );
      ( "cover",
        [ Alcotest.test_case "minimal" `Quick test_minimal_cover;
          Alcotest.test_case "extraneous lhs" `Quick test_extraneous_lhs;
          Alcotest.test_case "keys" `Quick test_keys ] );
      ( "armstrong",
        [ Alcotest.test_case "known" `Quick test_armstrong_known;
          Alcotest.test_case "closed sets" `Quick test_closed_sets;
          prop_armstrong_exact ] );
      ( "lhs analysis",
        [ Alcotest.test_case "mlc" `Quick test_mlc;
          Alcotest.test_case "Δk and Δ'k measures (§4.4)" `Quick test_mfs_mci_families;
          Alcotest.test_case "implicants" `Quick test_implicants ] );
      ( "properties",
        [ prop_closure_monotone_idempotent;
          prop_minimal_cover_equivalent;
          prop_satisfaction_matches_violations;
          prop_pair_consistent_symmetric;
          prop_minus_removes_attrs;
          prop_components_partition ] ) ]
