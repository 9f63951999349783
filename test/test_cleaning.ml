open Repair_relational
open Repair_fd
open Helpers
module Dirtiness = Repair_cleaning.Dirtiness
module Session = Repair_cleaning.Session
module D = Repair_workload.Datasets

(* ---------- dirtiness ---------- *)

let test_dirtiness_exact_on_tractable () =
  let e = Dirtiness.estimate D.office_fds D.office_table in
  Alcotest.(check bool) "deletions exact" true e.Dirtiness.deletions_exact;
  Alcotest.(check bool) "updates exact" true e.Dirtiness.updates_exact;
  check_float "deletions = 2" 2.0 e.Dirtiness.deletions_upper;
  check_float "updates = 2" 2.0 e.Dirtiness.updates_upper;
  (* Pair {1,2} violates both FDs but is one conflicting pair. *)
  Alcotest.(check int) "conflicts" 2 e.Dirtiness.conflicts;
  check_float "fraction dirty = 2/6" (2.0 /. 6.0)
    (Dirtiness.fraction_dirty e D.office_table)

let test_dirtiness_bounds_on_hard () =
  let rng = Repair_workload.Rng.make 17 in
  for _ = 1 to 10 do
    let t =
      Repair_workload.Gen_table.dirty rng D.r3_schema D.delta_a_to_b_to_c
        { Repair_workload.Gen_table.default with n = 10; noise = 0.3; domain_size = 3 }
    in
    let e = Dirtiness.estimate D.delta_a_to_b_to_c t in
    Alcotest.(check bool) "not exact" false e.Dirtiness.deletions_exact;
    let s_opt = Repair_srepair.S_exact.distance D.delta_a_to_b_to_c t in
    Alcotest.(check bool) "S bounds sandwich the optimum" true
      (e.Dirtiness.deletions_lower <= s_opt +. 1e-9
       && s_opt <= e.Dirtiness.deletions_upper +. 1e-9);
    Alcotest.(check bool) "U lower ≥ S lower (Cor 4.5)" true
      (e.Dirtiness.updates_lower >= e.Dirtiness.deletions_lower -. 1e-9)
  done

let test_dirtiness_clean_table () =
  let e = Dirtiness.estimate D.office_fds D.office_s1 in
  Alcotest.(check int) "no conflicts" 0 e.Dirtiness.conflicts;
  check_float "no deletions" 0.0 e.Dirtiness.deletions_upper;
  check_float "fraction zero" 0.0 (Dirtiness.fraction_dirty e D.office_s1)

let prop_conflicts_are_graph_edges =
  qcheck ~count:100 "conflicts = conflict-graph edge count"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) (gen_any_fd small_schema))
        (gen_table ~dom:2 small_schema))
    (fun (fds, t) ->
      let d = Fd_set.of_list fds in
      let module Cg = Repair_srepair.Conflict_graph in
      (Dirtiness.estimate d t).Dirtiness.conflicts
      = Cg.n_conflicts (Cg.build d t))

(* ---------- session ---------- *)

let test_session_lifecycle () =
  let s0 = Session.start D.office_fds D.office_table in
  Alcotest.(check bool) "starts dirty" false (Session.is_clean s0);
  Alcotest.(check int) "three violations" 3 (List.length (Session.violations s0));
  check_float "no cost yet" 0.0 (Session.cost s0);
  (* Delete the culprit: clean. *)
  let s1 = Session.delete s0 1 in
  Alcotest.(check bool) "clean after delete" true (Session.is_clean s1);
  check_float "cost = weight 2" 2.0 (Session.cost s1);
  (* Undo. *)
  let s2 = Session.restore s1 1 in
  Alcotest.(check bool) "dirty again" false (Session.is_clean s2);
  check_float "cost back to 0" 0.0 (Session.cost s2);
  Alcotest.(check int) "log has 2 entries" 2 (List.length (Session.log s2))

let test_session_update_path () =
  (* Reproduce U2 (Figure 1f) by hand. *)
  let s0 = Session.start D.office_fds D.office_table in
  let s1 = Session.update s0 2 "floor" (Value.int 3) in
  let s2 = Session.update s1 2 "city" (Value.str "Paris") in
  let s3 = Session.update s2 3 "city" (Value.str "Paris") in
  Alcotest.(check bool) "clean" true (Session.is_clean s3);
  check_float "cost 3 (= dist_upd U2)" 3.0 (Session.cost s3);
  Alcotest.check table "current equals U2" D.office_u2 (Session.current s3)

let test_session_edit_then_delete_costs_delete () =
  let s0 = Session.start D.office_fds D.office_table in
  let s1 = Session.update s0 1 "city" (Value.str "Rome") in
  check_float "one cell of weight 2" 2.0 (Session.cost s1);
  let s2 = Session.delete s1 1 in
  check_float "delete supersedes edit" 2.0 (Session.cost s2)

let test_session_validation () =
  let s0 = Session.start D.office_fds D.office_table in
  Alcotest.(check bool) "delete unknown" true
    (try ignore (Session.delete s0 99); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "update bad attr" true
    (try ignore (Session.update s0 1 "nope" (Value.int 1)); false
     with Invalid_argument _ -> true);
  let s1 = Session.delete s0 1 in
  Alcotest.(check bool) "update deleted tuple" true
    (try ignore (Session.update s1 1 "city" (Value.int 1)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "restore never-existing" true
    (try ignore (Session.restore s0 99); false with Invalid_argument _ -> true)

let test_session_auto_finish () =
  let s0 = Session.start D.office_fds D.office_table in
  let by_del = Session.auto_finish ~prefer:`Deletions s0 in
  Alcotest.(check bool) "deletions finish clean" true
    (Fd_set.satisfied_by D.office_fds by_del);
  check_float "optimal deletions" 2.0 (Table.dist_sub by_del D.office_table);
  let by_upd = Session.auto_finish ~prefer:`Updates s0 in
  Alcotest.(check bool) "updates finish clean" true
    (Fd_set.satisfied_by D.office_fds by_upd);
  check_float "optimal updates" 2.0 (Table.dist_upd by_upd D.office_table);
  (* partial manual work first, then auto *)
  let s1 = Session.update s0 2 "city" (Value.str "Paris") in
  let fin = Session.auto_finish ~prefer:`Updates s1 in
  Alcotest.(check bool) "finishes after manual edits" true
    (Fd_set.satisfied_by D.office_fds fin)

let prop_dirtiness_monotone_cleaning =
  qcheck ~count:20 "deleting a violating tuple never raises the estimate"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Repair_workload.Rng.make seed in
      let t =
        Repair_workload.Gen_table.dirty rng D.office_schema D.office_fds
          { Repair_workload.Gen_table.default with n = 12; noise = 0.3; domain_size = 3 }
      in
      let s0 = Session.start D.office_fds t in
      match Session.violations s0 with
      | [] -> true
      | (i, _, _) :: _ ->
        let s1 = Session.delete s0 i in
        let e0 = Session.dirtiness s0 and e1 = Session.dirtiness s1 in
        (* office Δ is tractable, so estimates are exact; removing a tuple
           can only shrink the optimal deletion cost. *)
        e1.Dirtiness.deletions_upper <= e0.Dirtiness.deletions_upper +. 1e-9)

let prop_session_log_replays =
  qcheck ~count:40 "replaying the log reproduces the session state"
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (triple (int_range 1 4) (int_range 0 2) (int_range 1 5)))
    (fun raw_ops ->
      let s0 = Session.start D.office_fds D.office_table in
      let attrs = [ "facility"; "room"; "floor"; "city" ] in
      let apply s (id, kind, v) =
        try
          match kind with
          | 0 -> Session.delete s id
          | 1 -> Session.update s id (List.nth attrs (v mod 4)) (Value.int v)
          | _ -> Session.restore s id
        with Invalid_argument _ -> s
      in
      let final = List.fold_left apply s0 raw_ops in
      (* replay the recorded log on a fresh session *)
      let replayed =
        List.fold_left
          (fun s op ->
            match op with
            | Session.Delete i -> Session.delete s i
            | Session.Update (i, a, v) -> Session.update s i a v
            | Session.Restore i -> Session.restore s i)
          (Session.start D.office_fds D.office_table)
          (Session.log final)
      in
      Table.equal (Session.current final) (Session.current replayed)
      && Session.cost final = Session.cost replayed)

let () =
  Alcotest.run "cleaning"
    [ ( "dirtiness",
        [ Alcotest.test_case "exact on tractable" `Quick test_dirtiness_exact_on_tractable;
          Alcotest.test_case "bounds on hard" `Quick test_dirtiness_bounds_on_hard;
          Alcotest.test_case "clean table" `Quick test_dirtiness_clean_table;
          prop_conflicts_are_graph_edges ] );
      ( "session",
        [ Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "update path (U2)" `Quick test_session_update_path;
          Alcotest.test_case "edit then delete" `Quick test_session_edit_then_delete_costs_delete;
          Alcotest.test_case "validation" `Quick test_session_validation;
          Alcotest.test_case "auto finish" `Quick test_session_auto_finish;
          prop_dirtiness_monotone_cleaning;
          prop_session_log_replays ] ) ]
