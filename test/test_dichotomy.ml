open Repair_relational
open Repair_fd
open Repair_dichotomy
open Helpers
module D = Repair_workload.Datasets
module Gen_fd = Repair_workload.Gen_fd
module Rng = Repair_workload.Rng

(* ---------- Example 3.5 derivations ---------- *)

let step_names trace =
  List.map
    (fun (step, _) ->
      match step with
      | Simplify.Common_lhs _ -> "common"
      | Simplify.Consensus _ -> "consensus"
      | Simplify.Marriage _ -> "marriage")
    trace

let test_office_trace () =
  let outcome, trace = Simplify.run D.office_fds in
  Alcotest.(check bool) "tractable" true (outcome = Simplify.Tractable);
  Alcotest.(check (list string)) "steps as in Example 3.5"
    [ "common"; "consensus"; "common"; "consensus" ]
    (step_names trace)

let test_marriage_trace () =
  let outcome, trace = Simplify.run D.delta_a_b_c_marriage in
  Alcotest.(check bool) "tractable" true (outcome = Simplify.Tractable);
  Alcotest.(check (list string)) "marriage then consensus"
    [ "marriage"; "consensus" ] (step_names trace)

let test_ssn_trace () =
  let outcome, trace = Simplify.run D.delta_ssn in
  Alcotest.(check bool) "tractable" true (outcome = Simplify.Tractable);
  (* Example 3.5: marriage, consensus, common lhs, consensus (we split the
     final two-attribute consensus into two steps). *)
  Alcotest.(check string) "first step is marriage" "marriage"
    (List.hd (step_names trace))

let test_hard_examples () =
  List.iter
    (fun (name, d) ->
      match fst (Simplify.run d) with
      | Simplify.Tractable -> Alcotest.fail (name ^ " should be hard")
      | Simplify.Hard stuck ->
        Alcotest.(check bool) (name ^ " stuck is subset-free") false
          (Fd_set.is_empty stuck))
    (D.table1 @ [ ("{A→B,C→D}", Fd_set.parse "A -> B; C -> D");
                  ("zip", D.delta_zip); ("Δ3", D.delta3) ])

let test_tractable_examples () =
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) name true (Simplify.succeeds d))
    [ ("office", D.office_fds);
      ("marriage", D.delta_a_b_c_marriage);
      ("ssn", D.delta_ssn);
      ("passport", D.delta_passport);
      ("Δ4", D.delta4);
      ("empty", Fd_set.empty);
      ("trivial", Fd_set.parse "A -> A") ]

let test_trivial_input_trace () =
  let d = Fd_set.parse "A -> A; A -> B" in
  let _, trace = Simplify.run d in
  Alcotest.(check (list string)) "steps run on the nontrivial part"
    [ "common"; "consensus" ] (step_names trace);
  Alcotest.(check (list string)) "prints the trivial removal first"
    [ "{A → A, A → B}";
      "  (trivial: {A → A}) ⇛ {A → B}";
      "  (common lhs A) ⇛ {∅ → B}";
      "  (consensus ∅ → B) ⇛ {}" ]
    (String.split_on_char '\n'
       (String.trim (Fmt.str "%a" Simplify.pp_trace (d, trace))))

(* ---------- chain corollary ---------- *)

let prop_chain_always_tractable =
  qcheck ~count:50 "Cor 3.6: chain FD sets pass OSRSucceeds"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let _, d = Gen_fd.chain rng ~n_attrs:5 ~n_fds:4 in
      Simplify.succeeds d)

(* ---------- five classes (Example 3.8) ---------- *)

let test_class_examples () =
  List.iter
    (fun (n, _, d) ->
      let c = Classify.certify d in
      Alcotest.(check int) (Printf.sprintf "Δ%d class" n) n c.Classify.cls)
    D.class_examples

let test_certify_table1 () =
  let sources =
    List.map
      (fun (name, d) -> (name, (Classify.certify d).Classify.source))
      D.table1
  in
  (* Each Table-1 set must certify against *some* hard source; the pair
     (Δ_AB→C→B, Δ_AB↔AC↔BC) certify against themselves. *)
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) (name ^ " has a source") true
        (List.mem src
           [ Classify.From_a_c_b; Classify.From_a_b_c; Classify.From_triangle;
             Classify.From_ab_c_b ]))
    sources;
  Alcotest.(check bool) "triangle set certifies class 4" true
    ((Classify.certify D.delta_ab_ac_bc).Classify.cls = 4);
  Alcotest.(check bool) "AB→C→B certifies class 5" true
    ((Classify.certify D.delta_ab_to_c_to_b).Classify.cls = 5)

let test_certify_rejects_simplifiable () =
  Alcotest.(check bool) "rejects common lhs" true
    (try ignore (Classify.certify D.office_fds); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects trivial" true
    (try ignore (Classify.certify Fd_set.empty); false
     with Invalid_argument _ -> true)

let prop_classify_total =
  qcheck ~count:500 "the five-class analysis has no gaps (random 3-6 attr sets)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n_attrs = 3 + Rng.int rng 4 in
      let _, d =
        Gen_fd.random rng ~n_attrs ~n_fds:(1 + Rng.int rng 4) ~max_lhs:3
      in
      match Classify.classify d with
      | `Tractable _ -> true
      | `Hard (stuck, _, cert) ->
        (not (Fd_set.is_empty stuck))
        && cert.Classify.cls >= 1 && cert.Classify.cls <= 5
        && (cert.Classify.cls <> 4 || cert.Classify.x3 <> None))

(* ---------- fact-wise reductions ---------- *)

let gen_abc_table = gen_table ~dom:3 ~max_size:6 small_schema

let reduction_for cls =
  let _, schema, d =
    List.find (fun (n, _, _) -> n = cls) D.class_examples
  in
  let cert = Classify.certify d in
  (d, Factwise.of_certificate schema d cert)

let prop_factwise_preserves cls =
  qcheck ~count:80
    (Printf.sprintf "fact-wise reduction class %d preserves consistency" cls)
    gen_abc_table
    (fun t ->
      let d, red = reduction_for cls in
      let t = Table.map_weights t (fun _ w -> w) in
      let img = Factwise.map_table red t in
      Fd_set.satisfied_by red.Factwise.source_fds t
      = Fd_set.satisfied_by d img)

let prop_factwise_injective cls =
  qcheck ~count:80 (Printf.sprintf "fact-wise reduction class %d is injective" cls)
    QCheck2.Gen.(pair (gen_tuple ~dom:4 small_schema) (gen_tuple ~dom:4 small_schema))
    (fun (t1, t2) ->
      let _, red = reduction_for cls in
      Tuple.equal t1 t2
      || not (Tuple.equal (red.Factwise.map_tuple t1) (red.Factwise.map_tuple t2)))

let prop_minus_reduction =
  qcheck ~count:80 "Lemma A.18 reduction preserves consistency"
    gen_abc_table
    (fun t ->
      let d = Fd_set.parse "A B -> C; C -> B" in
      let x = Attr_set.singleton "B" in
      let red = Factwise.minus_reduction small_schema d x in
      let img = Factwise.map_table red t in
      Fd_set.satisfied_by (Fd_set.minus d x) t = Fd_set.satisfied_by d img)

let test_factwise_schema_check () =
  let _, red = reduction_for 1 in
  Alcotest.(check bool) "wrong schema rejected" true
    (try
       ignore (Factwise.map_table red (Table.empty (Schema.make "X" [ "A" ])));
       false
     with Invalid_argument _ -> true)

(* Lemma 3.7: the reduction maps optimal repairs to optimal repairs — check
   distances transfer on small instances. *)
let prop_factwise_strict =
  qcheck ~count:25 "fact-wise reduction preserves optimal S-repair distance"
    gen_abc_table
    (fun t ->
      let d, red = reduction_for 1 in
      let img = Factwise.map_table red t in
      consistent_distance_eq
        (Repair_srepair.S_exact.distance red.Factwise.source_fds t)
        (Repair_srepair.S_exact.distance d img))

let () =
  Alcotest.run "dichotomy"
    [ ( "simplify",
        [ Alcotest.test_case "office trace" `Quick test_office_trace;
          Alcotest.test_case "marriage trace" `Quick test_marriage_trace;
          Alcotest.test_case "ssn trace" `Quick test_ssn_trace;
          Alcotest.test_case "hard examples" `Quick test_hard_examples;
          Alcotest.test_case "tractable examples" `Quick test_tractable_examples;
          Alcotest.test_case "trivial input" `Quick test_trivial_input_trace;
          prop_chain_always_tractable ] );
      ( "classify",
        [ Alcotest.test_case "Example 3.8 classes" `Quick test_class_examples;
          Alcotest.test_case "Table 1 certificates" `Quick test_certify_table1;
          Alcotest.test_case "rejects simplifiable" `Quick test_certify_rejects_simplifiable;
          prop_classify_total ] );
      ( "factwise",
        [ prop_factwise_preserves 1;
          prop_factwise_preserves 2;
          prop_factwise_preserves 3;
          prop_factwise_preserves 4;
          prop_factwise_preserves 5;
          prop_factwise_injective 1;
          prop_factwise_injective 2;
          prop_factwise_injective 3;
          prop_factwise_injective 4;
          prop_factwise_injective 5;
          prop_minus_reduction;
          Alcotest.test_case "schema check" `Quick test_factwise_schema_check;
          prop_factwise_strict ] ) ]
