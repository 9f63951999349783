open Repair_relational
open Repair_fd
open Repair_enumerate
open Helpers
module D = Repair_workload.Datasets
module Gen_fd = Repair_workload.Gen_fd
module Gen_table = Repair_workload.Gen_table
module Rng = Repair_workload.Rng

let schema2 = Schema.make "R" [ "A"; "B" ]
let mk a b = Tuple.make [ Value.int a; Value.int b ]
let fd_ab = Fd_set.parse "A -> B"

(* ---------- enumeration ---------- *)

let test_enumerate_known () =
  (* (1,1) (1,2) (2,1): repairs are {1,3} and {2,3}. *)
  let t = Table.of_list schema2 [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2); (3, 1.0, mk 2 1) ] in
  let reps = Enumerate.s_repairs fd_ab t in
  Alcotest.(check int) "two repairs" 2 (List.length reps);
  List.iter
    (fun s ->
      Alcotest.(check bool) "each is an S-repair" true
        (Repair_srepair.S_check.is_s_repair fd_ab ~of_:t s))
    reps

let test_enumerate_consistent_table () =
  let t = Table.of_list schema2 [ (1, 1.0, mk 1 1); (2, 1.0, mk 2 2) ] in
  let reps = Enumerate.s_repairs fd_ab t in
  Alcotest.(check int) "single repair" 1 (List.length reps);
  Alcotest.check table "the table itself" t (List.hd reps)

let test_enumerate_empty () =
  let t = Table.empty schema2 in
  Alcotest.(check int) "empty table has the empty repair" 1
    (List.length (Enumerate.s_repairs fd_ab t))

let test_enumerate_office () =
  (* Office: conflicts 1-2 and 1-3, so repairs = {1,4} and {2,3,4}. *)
  let reps = Enumerate.s_repairs D.office_fds D.office_table in
  Alcotest.(check int) "two repairs" 2 (List.length reps);
  let optimal = Enumerate.optimal_s_repairs D.office_fds D.office_table in
  (* weights: {1,4} = 4; {2,3,4} = 4 — both optimal. *)
  Alcotest.(check int) "both are weight-optimal" 2 (List.length optimal)

let test_enumerate_limit () =
  (* An n-tuple all-conflicting instance has n repairs; limit must trip. *)
  let t =
    Table.of_list schema2 (List.init 6 (fun i -> (i + 1, 1.0, mk 1 (i + 1))))
  in
  Alcotest.(check int) "six singleton repairs" 6
    (Enumerate.count_s_repairs fd_ab t);
  Alcotest.(check bool) "limit raises" true
    (try ignore (Enumerate.s_repairs ~limit:3 fd_ab t); false
     with Failure _ -> true)

let test_cardinality_exists () =
  let t = Table.of_list schema2 [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2); (3, 1.0, mk 2 1) ] in
  Alcotest.(check bool) "1 deletion enough" true
    (Enumerate.cardinality_repair_exists fd_ab t ~max_deletions:1);
  Alcotest.(check bool) "0 deletions not enough" false
    (Enumerate.cardinality_repair_exists fd_ab t ~max_deletions:0)

(* Every enumerated repair is maximal-consistent; their count matches a
   brute-force maximal-subset scan. *)
let prop_enumeration_sound_complete =
  qcheck ~count:40 "enumeration = brute-force maximal consistent subsets"
    QCheck2.Gen.(pair (gen_fd_set small_schema) (gen_table ~max_size:6 small_schema))
    (fun (d, t) ->
      let reps = Enumerate.s_repairs d t in
      let brute =
        (* maximal consistent subsets by scanning all subsets *)
        let ids = Array.of_list (Table.ids t) in
        let n = Array.length ids in
        let subsets =
          List.init (1 lsl n) (fun mask ->
              Table.restrict t
                (List.filteri (fun b _ -> mask land (1 lsl b) <> 0)
                   (Array.to_list ids)))
        in
        let consistent = List.filter (Fd_set.satisfied_by d) subsets in
        List.filter
          (fun s ->
            not
              (List.exists
                 (fun s' ->
                   Table.size s' > Table.size s
                   && Table.is_subset_of s s'
                   && Fd_set.satisfied_by d s')
                 consistent))
          consistent
      in
      List.length reps = List.length brute
      && List.for_all
           (fun s -> Repair_srepair.S_check.is_s_repair d ~of_:t s)
           reps)

(* ---------- counting ---------- *)

let test_count_known () =
  let t = Table.of_list schema2 [ (1, 1.0, mk 1 1); (2, 1.0, mk 1 2); (3, 1.0, mk 2 1) ] in
  (* optimal repairs: delete tuple 1 or tuple 2 → 2 optima *)
  Alcotest.(check int) "two optima" 2 (Count.optimal_s_repairs_exn fd_ab t);
  (* weighted: tuple 1 heavier → unique optimum *)
  let t2 = Table.of_list schema2 [ (1, 2.0, mk 1 1); (2, 1.0, mk 1 2); (3, 1.0, mk 2 1) ] in
  Alcotest.(check int) "unique optimum" 1 (Count.optimal_s_repairs_exn fd_ab t2)

let test_count_office () =
  (* S1 and S2 both have distance 2. *)
  Alcotest.(check int) "office has 2 optimal repairs" 2
    (Count.optimal_s_repairs_exn D.office_fds D.office_table)

(* Refusal depends on Δ only: an empty table is refused with the same
   payload as a one-row table. *)
let test_count_refuses_marriage () =
  let schema4 = Schema.make "R" [ "A"; "B"; "C"; "D" ] in
  let one_row =
    Table.of_list schema4
      [ (1, 1.0, Tuple.make (List.map Value.int [ 1; 1; 1; 1 ])) ]
  in
  List.iter
    (fun (d, refused_at) ->
      let d = Fd_set.parse d in
      List.iter
        (fun t ->
          match Count.optimal_s_repairs d t with
          | Error d' ->
            Alcotest.(check string) "refusal payload" refused_at
              (Fmt.str "%a" Fd_set.pp d')
          | Ok _ -> Alcotest.failf "%a should be refused" Fd_set.pp d)
        [ Table.empty schema4; one_row ])
    [ ("A -> B; B -> A; B -> C", "{A → B, B → A, B → C}");
      ("A B -> C; A C -> B", "{B → C, C → B}");
      ("A B -> C; A C -> D; A D -> B", "{B → C, C → D, D → B}") ]

let prop_count_matches_enumeration =
  qcheck ~count:30 "polynomial count = enumerated count on chain FD sets"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema, d = Gen_fd.chain rng ~n_attrs:4 ~n_fds:2 in
      let t =
        Gen_table.dirty rng schema d
          { Gen_table.default with n = 7; noise = 0.3; domain_size = 3 }
      in
      match Count.optimal_s_repairs d t with
      | Error _ -> false
      | Ok c ->
        c = List.length (Enumerate.optimal_s_repairs d t))

let prop_count_weight_matches_algorithm1 =
  qcheck ~count:30 "counting recursion's weight = OptSRepair's distance"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let schema, d = Gen_fd.chain rng ~n_attrs:4 ~n_fds:3 in
      let t =
        Gen_table.dirty rng schema d
          { Gen_table.default with n = 12; noise = 0.3; domain_size = 3;
            weighted = true }
      in
      match Count.optimal_weight_and_count d t with
      | Error _ -> false
      | Ok (kept, _) ->
        consistent_distance_eq (Table.total_weight t -. kept)
          (Result.get_ok (Repair_srepair.Opt_s_repair.distance d t)))

let () =
  Alcotest.run "enumerate"
    [ ( "enumeration",
        [ Alcotest.test_case "known instance" `Quick test_enumerate_known;
          Alcotest.test_case "consistent table" `Quick test_enumerate_consistent_table;
          Alcotest.test_case "empty table" `Quick test_enumerate_empty;
          Alcotest.test_case "office" `Quick test_enumerate_office;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "cardinality budget" `Quick test_cardinality_exists;
          prop_enumeration_sound_complete ] );
      ( "counting",
        [ Alcotest.test_case "known" `Quick test_count_known;
          Alcotest.test_case "office" `Quick test_count_office;
          Alcotest.test_case "marriage refused" `Quick test_count_refuses_marriage;
          prop_count_matches_enumeration;
          prop_count_weight_matches_algorithm1 ] ) ]
