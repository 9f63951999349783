(* The shared benchmark plumbing: the epsilon comparator that replaced
   float (=) in the experiment checks, and the BENCH_*.json record
   emission parsed back through the JSON codec. *)

module Json = Repair_core.Repair.Obs.Json

let test_approx_eq () =
  Alcotest.(check bool) "exact equality" true (Bench_util.approx_eq 2.0 2.0);
  Alcotest.(check bool) "classic float sum" true
    (Bench_util.approx_eq (0.1 +. 0.2) 0.3);
  Alcotest.(check bool) "within eps" true
    (Bench_util.approx_eq ~eps:0.1 1.0 1.05);
  Alcotest.(check bool) "outside eps" false (Bench_util.approx_eq 1.0 1.1);
  Alcotest.(check bool) "symmetric" true
    (Bench_util.approx_eq 1.1 1.0 = Bench_util.approx_eq 1.0 1.1);
  Alcotest.(check bool) "negative values" true
    (Bench_util.approx_eq (-2.0) (-2.0));
  Alcotest.(check bool) "sign matters" false (Bench_util.approx_eq 1e-3 (-1e-3))

let test_record_roundtrip () =
  Bench_util.current_experiment := "T1";
  Bench_util.record ~n:5 ~noise:0.25 ~counters:[ ("edges", 3) ]
    ~solver:"unit" ~wall_ms:1.5 ();
  let file = Filename.temp_file "bench" ".json" in
  Bench_util.write_bench ~file ();
  let text =
    let ic = open_in file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    s
  in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "emitted invalid JSON: %s" msg
  | Ok doc ->
    Alcotest.(check (option int)) "schema version" (Some 1)
      (Option.bind (Json.member "schema_version" doc) Json.int_value);
    Alcotest.(check bool) "git-describe present" true
      (Option.bind (Json.member "git" doc) Json.string_value <> None);
    Alcotest.(check (option int)) "cores"
      (Some (Domain.recommended_domain_count ()))
      (Option.bind (Json.member "cores" doc) Json.int_value);
    Alcotest.(check (option string)) "ocaml" (Some Sys.ocaml_version)
      (Option.bind (Json.member "ocaml" doc) Json.string_value);
    let records =
      Option.bind (Json.member "records" doc) Json.list_value
      |> Option.value ~default:[]
    in
    let mine =
      List.find_opt
        (fun r ->
          Option.bind (Json.member "name" r) Json.string_value
          = Some "T1/unit")
        records
    in
    (match mine with
    | None -> Alcotest.fail "record T1/unit not emitted"
    | Some r ->
      Alcotest.(check (option int)) "n" (Some 5)
        (Option.bind (Json.member "n" r) Json.int_value);
      Alcotest.(check bool) "wall_ms" true
        (Option.bind (Json.member "wall_ms" r) Json.float_value = Some 1.5);
      Alcotest.(check (option int)) "counters survive" (Some 3)
        (Option.bind
           (Option.bind (Json.member "counters" r) (Json.member "edges"))
           Json.int_value))

let () =
  Alcotest.run "bench-util"
    [ ( "bench-util",
        [ Alcotest.test_case "approx_eq" `Quick test_approx_eq;
          Alcotest.test_case "record round trip" `Quick test_record_roundtrip ]
      ) ]
