open Repair_relational
open Helpers

(* ---------- Value ---------- *)

let test_value_order () =
  Alcotest.(check bool) "unit smallest" true (Value.compare Value.Unit (Value.int 0) < 0);
  Alcotest.(check int) "int eq" 0 (Value.compare (Value.int 3) (Value.int 3));
  Alcotest.(check bool) "pair ordered" true
    (Value.compare (Value.pair (Value.int 1) (Value.int 2))
       (Value.pair (Value.int 1) (Value.int 3))
     < 0);
  Alcotest.(check bool) "str vs int incomparable kinds ordered" true
    (Value.compare (Value.int 5) (Value.str "a") < 0)

let test_value_hash_consistent () =
  let vs =
    [ Value.Unit; Value.int 7; Value.str "x";
      Value.pair (Value.int 1) (Value.str "y");
      Value.triple Value.Unit (Value.int 2) (Value.str "z"); Value.Fresh 3 ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          if Value.equal v w then
            Alcotest.(check int) "equal values hash equal" (Value.hash v)
              (Value.hash w))
        vs)
    vs

let test_value_of_string () =
  Alcotest.check value "int" (Value.int 42) (Value.of_string "42");
  Alcotest.check value "negative" (Value.int (-3)) (Value.of_string "-3");
  Alcotest.check value "string" (Value.str "Paris") (Value.of_string "Paris");
  Alcotest.check value "unit" Value.Unit (Value.of_string "_|_");
  Alcotest.check value "fresh" (Value.Fresh 5) (Value.of_string "$5");
  Alcotest.check value "dollar word" (Value.str "$x") (Value.of_string "$x")

let test_value_of_substring () =
  let check msg s pos len =
    Alcotest.check value msg
      (Value.of_string (String.sub s pos len))
      (Value.of_substring s pos len)
  in
  check "plain int" "x,42,y" 2 2;
  check "negative" "-3" 0 2;
  check "18 digits" "123456789012345678" 0 18;
  check "19 digits" "1234567890123456789" 0 19;
  check "20 digits" "12345678901234567890" 0 20;
  check "lone minus" "-" 0 1;
  check "empty" "ab" 1 0;
  check "blanks" " 7 " 0 3;
  check "hex" "0x1F" 0 4;
  check "underscore" "1_0" 0 3;
  check "unit" "_|_" 0 3;
  check "fresh" "$5," 0 2;
  check "utf-8" "\xc3\xa9" 0 2;
  Alcotest.check value "fast path" (Value.int (-7)) (Value.of_substring "a-7" 1 2);
  Alcotest.check_raises "bad range" (Invalid_argument "Value.of_substring")
    (fun () -> ignore (Value.of_substring "abc" 2 2))

let test_value_pp_roundtrip () =
  Alcotest.(check string) "pp pair" "⟨1,a⟩"
    (Value.to_string (Value.pair (Value.int 1) (Value.str "a")));
  Alcotest.(check string) "pp fresh" "$7" (Value.to_string (Value.Fresh 7))

let test_supply_avoids_collisions () =
  let s = Value.Supply.starting_above [ Value.Fresh 4; Value.pair (Value.Fresh 9) (Value.int 1) ] in
  Alcotest.check value "next above nested max" (Value.Fresh 10) (Value.Supply.next s);
  Alcotest.check value "monotone" (Value.Fresh 11) (Value.Supply.next s)

let test_supply_fresh_start () =
  let s = Value.Supply.create () in
  Alcotest.check value "starts at 0" (Value.Fresh 0) (Value.Supply.next s)

(* ---------- Attr_set ---------- *)

let test_attr_set_basic () =
  let x = Attr_set.of_list [ "B"; "A"; "B" ] in
  Alcotest.(check int) "dedup" 2 (Attr_set.cardinal x);
  Alcotest.(check (list string)) "sorted" [ "A"; "B" ] (Attr_set.to_list x);
  Alcotest.(check bool) "mem" true (Attr_set.mem "A" x);
  Alcotest.(check bool) "strict subset" true
    (Attr_set.strict_subset (Attr_set.singleton "A") x);
  Alcotest.(check bool) "not strict of self" false (Attr_set.strict_subset x x)

let test_attr_set_pp () =
  Alcotest.(check string) "empty" "∅" (Attr_set.to_string Attr_set.empty);
  Alcotest.(check string) "juxtaposed" "ABC"
    (Attr_set.to_string (Attr_set.of_list [ "C"; "A"; "B" ]));
  Alcotest.(check string) "spaced" "city facility"
    (Attr_set.to_string (Attr_set.of_list [ "facility"; "city" ]))

let test_attr_set_subsets () =
  let x = Attr_set.of_list [ "A"; "B"; "C" ] in
  Alcotest.(check int) "2^3 subsets" 8 (List.length (Attr_set.subsets x));
  let all = Attr_set.subsets x in
  Alcotest.(check bool) "contains empty" true
    (List.exists Attr_set.is_empty all);
  Alcotest.(check bool) "contains full" true
    (List.exists (Attr_set.equal x) all)

(* ---------- Schema / Tuple ---------- *)

let test_schema_basic () =
  let s = Schema.make "R" [ "A"; "B"; "C" ] in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index_of s "B");
  Alcotest.(check string) "attr at" "C" (Schema.attribute_at s 2);
  Alcotest.(check (list int)) "indices sorted" [ 0; 2 ]
    (Schema.indices_of s (Attr_set.of_list [ "C"; "A" ]));
  Alcotest.check_raises "duplicate attrs rejected"
    (Invalid_argument "Schema.make: duplicate attribute A") (fun () ->
      ignore (Schema.make "R" [ "A"; "A" ]))

let mk vs = Tuple.make (List.map Value.int vs)

let test_tuple_ops () =
  let s = Schema.make "R" [ "A"; "B"; "C" ] in
  let t = mk [ 1; 2; 3 ] in
  Alcotest.check value "get_attr" (Value.int 2) (Tuple.get_attr s t "B");
  let t' = Tuple.set_attr s t "B" (Value.int 9) in
  Alcotest.check tuple "set_attr" (mk [ 1; 9; 3 ]) t';
  Alcotest.check tuple "original untouched" (mk [ 1; 2; 3 ]) t;
  Alcotest.check tuple "project" (mk [ 1; 3 ])
    (Tuple.project s t (Attr_set.of_list [ "C"; "A" ]))

let test_tuple_hamming () =
  Alcotest.(check int) "identical" 0 (Tuple.hamming (mk [ 1; 2 ]) (mk [ 1; 2 ]));
  Alcotest.(check int) "one diff" 1 (Tuple.hamming (mk [ 1; 2 ]) (mk [ 1; 3 ]));
  Alcotest.(check int) "all diff" 2 (Tuple.hamming (mk [ 1; 2 ]) (mk [ 3; 4 ]));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Tuple.hamming: arity mismatch") (fun () ->
      ignore (Tuple.hamming (mk [ 1 ]) (mk [ 1; 2 ])))

let test_tuple_agree_on () =
  let s = Schema.make "R" [ "A"; "B"; "C" ] in
  let t1 = mk [ 1; 2; 3 ] and t2 = mk [ 1; 5; 3 ] in
  Alcotest.(check bool) "agree AC" true
    (Tuple.agree_on s t1 t2 (Attr_set.of_list [ "A"; "C" ]));
  Alcotest.(check bool) "disagree B" false
    (Tuple.agree_on s t1 t2 (Attr_set.singleton "B"));
  Alcotest.(check bool) "agree on empty" true
    (Tuple.agree_on s t1 t2 Attr_set.empty)

(* ---------- Table ---------- *)

let schema3 = Schema.make "R" [ "A"; "B"; "C" ]

let tbl3 () =
  Table.of_list schema3
    [ (1, 2.0, mk [ 1; 1; 1 ]);
      (2, 1.0, mk [ 1; 2; 1 ]);
      (3, 1.0, mk [ 2; 2; 2 ]);
      (4, 0.5, mk [ 1; 1; 1 ]) ]

let test_table_basics () =
  let t = tbl3 () in
  Alcotest.(check int) "size" 4 (Table.size t);
  Alcotest.(check (list int)) "ids ordered" [ 1; 2; 3; 4 ] (Table.ids t);
  check_float "total weight" 4.5 (Table.total_weight t);
  Alcotest.(check bool) "has duplicates" false (Table.is_duplicate_free t);
  Alcotest.(check bool) "not unweighted" false (Table.is_unweighted t);
  Alcotest.check tuple "tuple 3" (mk [ 2; 2; 2 ]) (Table.tuple t 3);
  check_float "weight 1" 2.0 (Table.weight t 1)

let test_table_add_checks () =
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Table.add: duplicate identifier 1") (fun () ->
      ignore (Table.add ~id:1 (tbl3 ()) (mk [ 9; 9; 9 ])));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Table.add: weight must be positive") (fun () ->
      ignore (Table.add ~weight:0.0 (tbl3 ()) (mk [ 9; 9; 9 ])));
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.add: tuple arity does not match schema")
    (fun () -> ignore (Table.add (tbl3 ()) (mk [ 1 ])))

(* NaN passes a [weight <= 0.0] test and infinity is positive: both
   must be refused, by [add] and by the Builder alike. *)
let test_table_weight_finite () =
  let b = Table.Builder.create schema3 in
  List.iter
    (fun (w, msg) ->
      Alcotest.check_raises (Printf.sprintf "add %g" w)
        (Invalid_argument ("Table.add: " ^ msg)) (fun () ->
          ignore (Table.add ~weight:w (tbl3 ()) (mk [ 9; 9; 9 ])));
      Alcotest.check_raises (Printf.sprintf "Builder.add %g" w)
        (Invalid_argument ("Table.add: " ^ msg)) (fun () ->
          Table.Builder.add ~weight:w b (mk [ 9; 9; 9 ])))
    [ (Float.nan, "weight must be positive");
      (Float.neg_infinity, "weight must be positive");
      (-0.0, "weight must be positive");
      (Float.infinity, "weight must be finite") ];
  Alcotest.(check int) "builder untouched" 0 (Table.Builder.length b);
  check_float "largest finite weight accepted" Float.max_float
    (Table.weight (Table.add ~id:9 ~weight:Float.max_float (tbl3 ()) (mk [ 9; 9; 9 ])) 9)

(* The Builder builds its duplicate-id set only once an id fails to
   increase; adding rows one by one must still give [Table.add]'s
   table, or its error at the same row. *)
let prop_builder_ids_like_add =
  qcheck ~count:500
    "Builder.add = folding Table.add, duplicate and implicit ids included"
    QCheck2.Gen.(list_size (int_range 0 10) (opt (int_range 1 8)))
    (fun ids ->
      let row = mk [ 1; 2; 3 ] in
      let folded =
        try
          Ok
            (List.fold_left
               (fun tbl id -> Table.add ?id tbl row)
               (Table.empty schema3) ids)
        with Invalid_argument m -> Error m
      in
      let built =
        let b = Table.Builder.create ~capacity:1 schema3 in
        try
          List.iter (fun id -> Table.Builder.add ?id b row) ids;
          Ok (Table.Builder.build b)
        with Invalid_argument m -> Error m
      in
      match (folded, built) with
      | Ok t1, Ok t2 -> Table.equal t1 t2
      | Error m1, Error m2 -> m1 = m2
      | _ -> false)

let test_table_fresh_ids () =
  let t = Table.add (tbl3 ()) (mk [ 7; 7; 7 ]) in
  Alcotest.(check (list int)) "next id is max+1" [ 1; 2; 3; 4; 5 ] (Table.ids t)

let test_table_select_group () =
  let t = tbl3 () in
  let a1 = Table.select_eq t (Attr_set.singleton "A") (mk [ 1 ]) in
  Alcotest.(check (list int)) "A=1" [ 1; 2; 4 ] (Table.ids a1);
  let groups = Table.group_by t (Attr_set.singleton "A") in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let keys = List.map fst groups in
  Alcotest.(check bool) "keys distinct" true
    (List.length (List.sort_uniq Tuple.compare keys) = 2);
  (* Groups partition the table. *)
  let total = List.fold_left (fun acc (_, sub) -> acc + Table.size sub) 0 groups in
  Alcotest.(check int) "partition" (Table.size t) total

let test_table_project_distinct () =
  let t = tbl3 () in
  Alcotest.(check int) "distinct A" 2
    (List.length (Table.project_distinct t (Attr_set.singleton "A")));
  Alcotest.(check int) "distinct AB" 3
    (List.length (Table.project_distinct t (Attr_set.of_list [ "A"; "B" ])))

let test_table_restrict_remove_union () =
  let t = tbl3 () in
  let s = Table.restrict t [ 1; 3; 99 ] in
  Alcotest.(check (list int)) "restrict ignores unknown" [ 1; 3 ] (Table.ids s);
  let r = Table.remove t [ 2 ] in
  Alcotest.(check (list int)) "remove" [ 1; 3; 4 ] (Table.ids r);
  let u = Table.union s (Table.restrict t [ 2 ]) in
  Alcotest.(check (list int)) "union" [ 1; 2; 3 ] (Table.ids u);
  Alcotest.(check bool) "union overlap rejected" true
    (try ignore (Table.union s s); false with Invalid_argument _ -> true)

let test_table_subset_update_checks () =
  let t = tbl3 () in
  let s = Table.restrict t [ 1; 2 ] in
  Alcotest.(check bool) "subset" true (Table.is_subset_of s t);
  Alcotest.(check bool) "not reverse" false (Table.is_subset_of t s);
  let u = Table.set_tuple t 1 (mk [ 9; 1; 1 ]) in
  Alcotest.(check bool) "update" true (Table.is_update_of u t);
  Alcotest.(check bool) "subset is not update" false (Table.is_update_of s t)

let test_table_distances () =
  let t = tbl3 () in
  check_float "dist_sub" 1.5 (Table.dist_sub (Table.restrict t [ 1; 3 ]) t);
  check_float "dist_sub self" 0.0 (Table.dist_sub t t);
  let u = Table.set_tuple (Table.set_tuple t 1 (mk [ 9; 1; 1 ])) 3 (mk [ 9; 9; 2 ]) in
  (* tuple 1 (w=2): 1 cell; tuple 3 (w=1): 2 cells *)
  check_float "dist_upd" 4.0 (Table.dist_upd u t);
  Alcotest.check_raises "dist_sub rejects non-subset"
    (Invalid_argument "Table.dist_sub: not a subset") (fun () ->
      ignore (Table.dist_sub u t))

let test_table_active_domain () =
  let t = tbl3 () in
  Alcotest.(check int) "adom A" 2 (List.length (Table.active_domain t "A"));
  Alcotest.(check int) "all values" 2 (List.length (all_values t))

let test_table_map_weights () =
  let t = Table.map_weights (tbl3 ()) (fun _ w -> w *. 2.0) in
  check_float "doubled" 9.0 (Table.total_weight t);
  Alcotest.check_raises "rejects nonpositive"
    (Invalid_argument "Table.map_weights: weight must be positive") (fun () ->
      ignore (Table.map_weights t (fun _ _ -> 0.0)));
  Alcotest.check_raises "rejects nan"
    (Invalid_argument "Table.map_weights: weight must be positive") (fun () ->
      ignore (Table.map_weights t (fun _ _ -> Float.nan)));
  Alcotest.check_raises "rejects infinity"
    (Invalid_argument "Table.map_weights: weight must be finite") (fun () ->
      ignore (Table.map_weights t (fun _ _ -> Float.infinity)))

(* ---------- CSV ---------- *)

let test_csv_roundtrip () =
  let t = tbl3 () in
  let s = Csv_io.to_string t in
  let t' = Csv_io.parse_string ~name:"R" s in
  Alcotest.check table "roundtrip with meta" t t'

let test_csv_no_meta () =
  let t = tbl3 () in
  let s = Csv_io.to_string ~with_meta:false t in
  let t' = Csv_io.parse_string ~name:"R" s in
  Alcotest.(check int) "same size" (Table.size t) (Table.size t');
  Alcotest.(check bool) "unit weights" true (Table.is_unweighted t')

let test_csv_quoting () =
  let s = Schema.make "R" [ "A"; "B"; "C" ] in
  let t =
    Table.of_tuples s
      [ Tuple.make [ Value.str "a,b"; Value.str "say \"hi\""; Value.str "x\ry" ] ]
  in
  let text = Csv_io.to_string t in
  Alcotest.(check string) "CR quoted"
    "#id,#weight,A,B,C\n1,1,\"a,b\",\"say \"\"hi\"\"\",\"x\ry\"\n" text;
  let t' = Csv_io.parse_string ~name:"R" text in
  Alcotest.check value "comma survives" (Value.str "a,b") (Tuple.get (Table.tuple t' 1) 0);
  Alcotest.check value "quotes survive" (Value.str "say \"hi\"")
    (Tuple.get (Table.tuple t' 1) 1);
  Alcotest.check value "CR survives" (Value.str "x\ry")
    (Tuple.get (Table.tuple t' 1) 2)

let test_csv_errors () =
  let module E = Repair_runtime.Repair_error in
  Alcotest.(check bool) "short row fails with line number" true
    (try ignore (Csv_io.parse_string ~name:"R" "A,B\n1\n"); false
     with E.Error (E.Parse { line = Some 2; _ }) -> true);
  Alcotest.(check bool) "empty fails" true
    (try ignore (Csv_io.parse_string ~name:"R" ""); false
     with E.Error (E.Parse _) -> true);
  (match Csv_io.parse_result ~name:"R" "A,B\n1\n" with
  | Error (E.Parse { source; _ }) ->
    Alcotest.(check string) "default source label" "<csv>" source
  | _ -> Alcotest.fail "parse_result must return a Parse error")

(* A NaN or infinite weight is a line-numbered parse error in both
   formats: it used to pass the [weight <= 0.0] check. *)
let test_nonfinite_weights () =
  let module E = Repair_runtime.Repair_error in
  let csv w = Printf.sprintf "#id,#weight,A,B\n1,%s,1,1\n2,1,1,2\n3,2,1,3\n" w in
  let jsonl w =
    Printf.sprintf
      "{\"#id\": 1, \"#weight\": \"%s\", \"A\": 1, \"B\": 1}\n\
       {\"#id\": 2, \"#weight\": 1, \"A\": 1, \"B\": 2}\n" w
  in
  List.iter
    (fun (w, detail) ->
      let expect fmt ~line r =
        match r with
        | Error (E.Parse { line = l; detail = d; _ })
          when l = Some line && d = detail -> ()
        | _ ->
          Alcotest.failf "%s weight %s: expected a Parse error at line %d" fmt
            w line
      in
      expect "csv" ~line:2 (Csv_io.parse_result ~name:"R" (csv w));
      expect "jsonl" ~line:1 (Jsonl_io.parse_result ~name:"R" (jsonl w)))
    [ ("nan", "Table.add: weight must be positive");
      ("-inf", "Table.add: weight must be positive");
      ("inf", "Table.add: weight must be finite");
      ("infinity", "Table.add: weight must be finite") ]

(* ---------- the seed reader and writer as oracles ---------- *)

let same_parse a b =
  match (a, b) with
  | Ok t1, Ok t2 -> Table.equal t1 t2
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let parses_like_seed s =
  same_parse (Csv_io.parse_result ~name:"R" s) (Seed_csv.parse_result ~name:"R" s)

(* Inputs that random text rarely reaches, each checked against the
   oracle and against the value it must give. *)
let test_csv_dialect () =
  let module E = Repair_runtime.Repair_error in
  let cell s = Tuple.get (Table.tuple (Csv_io.parse_string ~name:"R" s) 1) 0 in
  let error s =
    match Csv_io.parse_result ~name:"R" s with
    | Error (E.Parse { line; detail; _ }) -> (line, detail)
    | _ -> Alcotest.failf "%S must be a Parse error" s
  in
  let cases =
    [ "A\n\"a\"\r\"b\"\n"; "A,B\n1,2\n \t\012\r\n1\n"; "A,B\n\"x\ny\",2\n3\n";
      "#id,#id,A\n1,2,3\n"; "A\n\"x\"\"y\"\n"; "A\nx\"y,z\"w\n"; "\n\r\n  \nA\n1\n";
      "A,B\n1,\"x\n\n\n"; "A\r\n\"p\"\r\r\"q\"\r\n"; "#weight,A,#weight\n1,2,3\n" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S as the seed" s) true
        (parses_like_seed s))
    cases;
  Alcotest.check value "quote, CR, quote is a literal quote" (Value.str "a\"b")
    (cell "A\n\"a\"\r\"b\"\n");
  Alcotest.check value "CRs between the quotes too" (Value.str "p\"q")
    (cell "A\r\n\"p\"\r\r\"q\"\r\n");
  Alcotest.check value "a quote opens a run mid-field" (Value.str "xy,zw")
    (cell "A\nx\"y,z\"w\n");
  Alcotest.check value "quoted newline" (Value.str "x\ny") (cell "A,B\n\"x\ny\",2\n");
  Alcotest.(check (pair (option int) string)) "blank line not counted"
    (Some 3, "row has 1 fields, expected 2")
    (error "A,B\n1,2\n \t\012\r\n1\n");
  Alcotest.(check (pair (option int) string)) "quoted newline is one line"
    (Some 3, "row has 1 fields, expected 2")
    (error "A,B\n\"x\ny\",2\n3\n");
  Alcotest.(check (pair (option int) string)) "repeated #id header"
    (Some 2, "Table.add: tuple arity does not match schema")
    (error "#id,#id,A\n1,2,3\n");
  Alcotest.(check (pair (option int) string)) "unterminated at its line"
    (Some 2, "unterminated quoted field")
    (error "A,B\n1,\"x\n\n\n")

(* A load's memory follows its bytes, not its newlines: blank lines and
   newlines inside quotes make no row, so a wide header over 50,000 or
   more of them may neither allocate 50 columns of room for each nor
   keep any room it did not fill. *)
let test_csv_load_memory () =
  let header = String.concat "," (List.init 50 (Printf.sprintf "A%d")) in
  let load what text rows =
    let before = Gc.allocated_bytes () in
    let t = Csv_io.parse_string ~name:"R" text in
    let allocated = Gc.allocated_bytes () -. before in
    let kept = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8) in
    let len = String.length text in
    Alcotest.(check int) (what ^ ": rows") rows (Table.size t);
    if allocated > 64.0 *. float_of_int len then
      Alcotest.failf "%s: %.0f bytes allocated for %d input bytes" what
        allocated len;
    if kept > 2 * len then
      Alcotest.failf "%s: %d bytes kept for %d input bytes" what kept len
  in
  load "blank lines" (header ^ String.make 100_000 '\n') 0;
  load "newlines in a quoted field"
    (header ^ "\n" ^ String.make 49 ',' ^ "\""
    ^ String.concat "" (List.init 50_000 (fun _ -> "x\n"))
    ^ "\"\n")
    1

(* ---------- JSON lines ---------- *)

let test_jsonl_roundtrip () =
  let t = tbl3 () in
  let t' = Jsonl_io.parse_string ~name:"R" (Jsonl_io.to_string t) in
  Alcotest.check table "roundtrip with meta" t t'

let test_jsonl_strings_and_escapes () =
  let s = Schema.make "R" [ "A"; "B" ] in
  let t =
    Table.of_tuples s
      [ Tuple.make [ Value.str "say \"hi\""; Value.str "tab\there" ];
        Tuple.make [ Value.str "back\\slash"; Value.str "plain" ] ]
  in
  let t' = Jsonl_io.parse_string ~name:"R" (Jsonl_io.to_string t) in
  Alcotest.check value "quotes survive" (Value.str "say \"hi\"")
    (Tuple.get (Table.tuple t' 1) 0);
  Alcotest.check value "tab survives" (Value.str "tab\there")
    (Tuple.get (Table.tuple t' 1) 1);
  Alcotest.check value "backslash survives" (Value.str "back\\slash")
    (Tuple.get (Table.tuple t' 2) 0)

let test_jsonl_input_variants () =
  let t =
    Jsonl_io.parse_string ~name:"R"
      "{\"A\": 1, \"B\": \"x\"}\n{ \"A\" : 2 , \"B\" : \"\\u0041\" }\n"
  in
  Alcotest.(check int) "two rows, auto ids" 2 (Table.size t);
  Alcotest.check value "unicode escape" (Value.str "A")
    (Tuple.get (Table.tuple t 2) 1);
  Alcotest.(check bool) "unit weights" true (Table.is_unweighted t);
  (* A CR inside a line is JSON whitespace; a string #weight parses. *)
  let t =
    Jsonl_io.parse_string ~name:"R"
      "{\"A\":\r1,\r\"#weight\": \"2.5\"}\r\n{\"A\": 2, \"#weight\": \"4\"}\n"
  in
  Alcotest.(check int) "CR inside a line" 2 (Table.size t);
  check_float "string #weight" 2.5 (Table.weight t 1);
  check_float "integral string #weight" 4.0 (Table.weight t 2)

(* A line without #id takes one above the largest id so far, also
   after ids that came out of order; a fold of [Table.add] agrees. *)
let test_jsonl_implicit_ids () =
  let t =
    Jsonl_io.parse_string ~name:"R"
      "{\"#id\": 5, \"A\": 1}\n{\"#id\": 2, \"A\": 2}\n{\"A\": 3}\n\
       {\"#id\": 10, \"A\": 4}\n{\"#id\": 7, \"A\": 5}\n{\"A\": 6}\n\
       {\"A\": 7}\n"
  in
  Alcotest.(check (list int)) "ids" [ 2; 5; 6; 7; 10; 11; 12 ] (Table.ids t);
  Alcotest.check value "6 is the third line" (Value.int 3)
    (Tuple.get (Table.tuple t 6) 0);
  Alcotest.check value "11 is the sixth line" (Value.int 6)
    (Tuple.get (Table.tuple t 11) 0);
  let folded =
    List.fold_left
      (fun tbl (id, a) -> Table.add ?id tbl (Tuple.make [ Value.int a ]))
      (Table.empty (Table.schema t))
      [ (Some 5, 1); (Some 2, 2); (None, 3); (Some 10, 4); (Some 7, 5);
        (None, 6); (None, 7) ]
  in
  Alcotest.check table "as folding Table.add" folded t

(* \uXXXX escapes: exactly four hex digits, surrogate pairs combine into
   one astral-plane scalar (UTF-8, not CESU-8), and lone halves are
   line-numbered parse errors. *)
let test_jsonl_unicode_escapes () =
  let module E = Repair_runtime.Repair_error in
  let t =
    Jsonl_io.parse_string ~name:"R"
      "{\"A\": \"\\ud83d\\ude00\"}\n{\"A\": \"x\\uD834\\uDD1Ey\\u00e9\"}\n"
  in
  Alcotest.check value "surrogate pair" (Value.str "\xf0\x9f\x98\x80")
    (Tuple.get (Table.tuple t 1) 0);
  Alcotest.check value "pair between BMP text"
    (Value.str "x\xf0\x9d\x84\x9ey\xc3\xa9")
    (Tuple.get (Table.tuple t 2) 0);
  List.iter
    (fun escaped ->
      match
        Jsonl_io.parse_result ~name:"R"
          (Printf.sprintf "{\"A\": \"ok\"}\n{\"A\": \"%s\"}" escaped)
      with
      | Error (E.Parse { line = Some 2; _ }) -> ()
      | _ -> Alcotest.failf "%s must be a Parse error at line 2" escaped)
    [ "\\u1_23"; "\\u12_3"; "\\ud83d" (* lone high *);
      "\\ude00" (* lone low *); "\\ud83d\\ud83d" (* high, high *);
      "\\ud83dx" (* high, plain char *); "\\ud83d\\u00e9" (* high, BMP *) ]

let test_jsonl_errors () =
  let module E = Repair_runtime.Repair_error in
  let fails s =
    try ignore (Jsonl_io.parse_string ~name:"R" s); false
    with E.Error (E.Parse _) -> true
  in
  Alcotest.(check bool) "float rejected" true (fails "{\"A\": 1.5}");
  Alcotest.(check bool) "bool rejected" true (fails "{\"A\": true}");
  Alcotest.(check bool) "nested rejected" true (fails "{\"A\": [1]}");
  Alcotest.(check bool) "missing attr" true
    (fails "{\"A\": 1, \"B\": 2}\n{\"A\": 3}");
  Alcotest.(check bool) "empty input" true (fails "");
  Alcotest.(check bool) "trailing junk" true (fails "{\"A\": 1} x");
  (* Values JSON has but a row does not are Parse errors at their line. *)
  let line_of s =
    match Jsonl_io.parse_result ~name:"R" s with
    | Error (E.Parse { line; _ }) -> line
    | _ -> None
  in
  List.iter
    (fun (what, second) ->
      Alcotest.(check (option int)) what (Some 2)
        (line_of ("{\"A\": 1, \"#weight\": 2}\n" ^ second)))
    [ ("array line", "[1]");
      ("out-of-range integer", "{\"A\": 99999999999999999999}");
      ("float #weight", "{\"A\": 2, \"#weight\": 1.5}");
      ("exponent #weight", "{\"A\": 2, \"#weight\": 1e3}") ]

let test_jsonl_fractional_weight () =
  let t =
    Table.of_list (Schema.make "R" [ "A" ])
      [ (1, 0.9, Tuple.make [ Value.int 1 ]) ]
  in
  let t' = Jsonl_io.parse_string ~name:"R" (Jsonl_io.to_string t) in
  check_float "weight 0.9 roundtrips" 0.9 (Table.weight t' 1)

let test_file_io_roundtrips () =
  let t = tbl3 () in
  let csv_path = Filename.temp_file "repair_test" ".csv" in
  let jsonl_path = Filename.temp_file "repair_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv_path; Sys.remove jsonl_path)
    (fun () ->
      let save path text = Repair_runtime.Io_fault.write_file_atomic path text in
      save csv_path (Csv_io.to_string t);
      Alcotest.check table "csv file roundtrip" t (Csv_io.load ~name:"R" csv_path);
      save jsonl_path (Jsonl_io.to_string t);
      Alcotest.check table "jsonl file roundtrip" t
        (Jsonl_io.load ~name:"R" jsonl_path))

(* ---------- Database ---------- *)

let test_database_basics () =
  let db =
    Database.empty
    |> fun db -> Database.add db ~name:"office" (tbl3 ())
    |> fun db -> Database.add db ~name:"staff" (Table.empty schema3)
  in
  Alcotest.(check (list string)) "names sorted" [ "office"; "staff" ]
    (Database.names db);
  Alcotest.(check bool) "find" true (Database.find db "office" <> None);
  check_float "total weight" 4.5 (Database.total_weight db);
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (Database.add db ~name:"office" (tbl3 ())); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "update unknown" true
    (try ignore (Database.update db ~name:"nope" (tbl3 ())); false
     with Not_found -> true)

let test_database_distances () =
  let db = Database.add Database.empty ~name:"r" (tbl3 ()) in
  let db' = Database.update db ~name:"r" (Table.restrict (tbl3 ()) [ 1; 3 ]) in
  check_float "dist_sub sums per relation" 1.5 (Database.dist_sub db' db);
  let mismatched = Database.add Database.empty ~name:"other" (tbl3 ()) in
  Alcotest.(check bool) "name mismatch rejected" true
    (try ignore (Database.dist_sub mismatched db); false
     with Invalid_argument _ -> true)

(* ---------- structured IO error paths ---------- *)

(* Every IO-layer failure must surface as a classified Repair_error —
   Parse, Io or Schema_mismatch — never as a bare Failure/Sys_error
   that would bypass the CLI's exit-code mapping. [parse_result] only
   guards Repair_error.Error, so an unclassified exception escapes and
   fails the property. *)
let io_error_classified = function
  | Ok _ -> true
  | Error e -> (
    let module E = Repair_runtime.Repair_error in
    match e with
    | E.Parse _ | E.Io _ | E.Schema_mismatch _ -> true
    | _ -> false)

(* Random near-miss inputs: printable noise interleaved with the
   delimiters and escapes both parsers are touchiest about. *)
let gen_io_junk =
  QCheck2.Gen.(
    let chunk =
      oneof
        [ string_size ~gen:printable (int_range 0 8);
          oneofl
            [ "\""; ","; "\n"; "{"; "}"; ":"; "\\"; "\\u12"; "\\uZZZZ";
              "#id"; "#weight"; "A,B\n1,2\n"; "{\"A\": 1}\n"; "1.5"; "-";
              "\r"; "\r\n"; "\n\n"; " \t \n"; "\012"; "\"\""; "#id,#id,A\n";
              "#weight,A,#weight\n"; "#id,#weight,A\n1,2,3\n" ] ]
    in
    list_size (int_range 0 12) chunk |> map (String.concat ""))

(* CSV-shaped text: a header, then rows that mostly have the right
   width, over fields and line ends chosen to hit every rule of the
   dialect. About a third of these parse. *)
let gen_csv_text =
  QCheck2.Gen.(
    let name = frequencyl [ (6, "A"); (6, "B"); (4, "C"); (2, " D "); (2, "#id");
                            (2, "#weight"); (1, "\"E\"") ] in
    let field =
      oneofl
        [ "1"; "2"; "3"; "-3"; "007"; "-0"; " 5"; "+5"; "0x1F"; "1_0"; "1_000";
          "12345678901234567890"; "1234567890123456789"; "123456789012345678";
          "-"; "\"12\""; "nan"; "inf"; "0.5"; ""; " 7 "; "_|_"; "$3";
          "x"; "\xc3\xa9"; "\"a,b\""; "\"x\"\"y\""; "\"q\"\r\"r\""; "\"m\nn\"";
          "\"open"; "a\"b\"c"; "\r"; "\012"; "1\r"; " \t" ]
    in
    let eol = frequencyl [ (6, "\n"); (3, "\r\n"); (1, "\n \t\n"); (1, "\n\n");
                           (1, "\n\012\r\n") ] in
    let* ncols = int_range 1 4 in
    let* header = list_repeat ncols name in
    let row =
      let* width = frequencyl [ (12, ncols); (1, ncols - 1); (1, ncols + 1) ] in
      list_repeat (max 1 width) field |> map (String.concat ",")
    in
    let* rows = list_size (int_range 0 5) row in
    let* eols = list_repeat (List.length rows + 1) eol in
    let* last_eol = bool in
    let lines = String.concat "," header :: rows in
    let text = List.concat (List.map2 (fun l e -> [ l; e ]) lines eols) in
    let n = if last_eol then List.length text else List.length text - 1 in
    return (String.concat "" (List.filteri (fun i _ -> i < n) text)))

let prop_csv_junk_like_seed =
  qcheck ~count:3000 ~print:(fun s -> Printf.sprintf "%S" s)
    "csv parse_result = seed parser on junk" gen_io_junk parses_like_seed

let prop_csv_text_like_seed =
  qcheck ~count:5000 ~print:(fun s -> Printf.sprintf "%S" s)
    "csv parse_result = seed parser on CSV-shaped text" gen_csv_text
    parses_like_seed

(* Random tables over every value constructor, extreme ints and
   non-unit weights, with header names that need quoting. *)
let gen_value =
  QCheck2.Gen.(
    let text =
      string_size (int_range 0 5)
        ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; ' '; '1'; '\xc3'; '\xa9' ])
    in
    let leaf =
      oneof
        [ return Value.Unit;
          map Value.int (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
          map Value.str text;
          map (fun i -> Value.Fresh i) (int_range 0 1000) ]
    in
    let rec tree depth =
      if depth = 0 then leaf
      else
        frequency
          [ (4, leaf);
            (1, map2 Value.pair (tree (depth - 1)) (tree (depth - 1)));
            (1, map3 Value.triple (tree (depth - 1)) (tree (depth - 1))
                  (tree (depth - 1))) ]
    in
    tree 2)

let gen_value_table =
  QCheck2.Gen.(
    let* attrs = oneofl [ [ "A" ]; [ "A"; "B"; "C" ]; [ "a,b"; "say \"x\""; "c\rd" ] ] in
    let schema = Schema.make "R" attrs in
    let* n = int_range 0 8 in
    let* gaps = list_repeat n (int_range 1 3) in
    let* weights = list_repeat n (oneofl [ 1.0; 1.0; 0.5; 2.0; 1e-7; 1e21; 3.25 ]) in
    let* tuples = list_repeat n (list_repeat (List.length attrs) gen_value) in
    let ids = List.mapi (fun k g -> (3 * k) + g) gaps (* increasing *) in
    return
      (Table.of_list schema
         (List.map2 (fun (i, w) vs -> (i, w, Tuple.make vs))
            (List.combine ids weights) tuples)))

let prop_csv_render_like_seed =
  qcheck ~count:1000 "csv to_string and Value.to_string = seed renderer"
    QCheck2.Gen.(pair gen_value_table bool)
    (fun (t, with_meta) ->
      Csv_io.to_string ~with_meta t = Seed_csv.to_string ~with_meta t
      && Table.fold
           (fun _ tp _ ok ->
             ok
             && List.for_all
                  (fun v ->
                    let seed = Seed_value.to_string v in
                    Value.to_string v = seed && Fmt.str "%a" Value.pp v = seed)
                  (Tuple.values tp))
           t true)

(* Values with CRs inside: written quoted, they read back unchanged. *)
let prop_csv_cr_roundtrip =
  qcheck ~count:300 "csv roundtrips string tables with CRs"
    QCheck2.Gen.(
      let middle =
        list_size (int_range 1 4) (oneofl [ "\r"; "\r\n"; "a"; ","; "\""; " "; "\n" ])
        |> map (fun parts -> "\r" ^ String.concat "" parts)
      in
      let cell =
        map2 (fun m c -> Value.str ("x" ^ m ^ String.make 1 c)) middle
          (char_range 'a' 'z')
      in
      list_size (int_range 0 6) (triple cell cell (oneofl [ 1.0; 0.5; 2.0 ]))
      |> map (fun rows ->
             Table.of_list (Schema.make "R" [ "A"; "B" ])
               (List.mapi (fun i (a, b, w) -> (i + 1, w, Tuple.make [ a; b ])) rows)))
    (fun t -> Table.equal t (Csv_io.parse_string ~name:"R" (Csv_io.to_string t)))

let prop_csv_errors_classified =
  qcheck ~count:500 ~print:(fun s -> Printf.sprintf "%S" s)
    "csv parse_result never raises unclassified" gen_io_junk (fun s ->
      io_error_classified (Csv_io.parse_result ~name:"R" s))

let prop_jsonl_errors_classified =
  qcheck ~count:500 ~print:(fun s -> Printf.sprintf "%S" s)
    "jsonl parse_result never raises unclassified" gen_io_junk (fun s ->
      io_error_classified (Jsonl_io.parse_result ~name:"R" s))

let test_io_error_classes () =
  let module E = Repair_runtime.Repair_error in
  (match Csv_io.parse_result ~name:"R" "A,A\n1,2\n" with
  | Error (E.Schema_mismatch _) -> ()
  | _ -> Alcotest.fail "duplicate CSV columns must be Schema_mismatch");
  (match Jsonl_io.parse_result ~name:"R" "{\"A\": 1, \"A\": 2}" with
  | Error (E.Schema_mismatch _) -> ()
  | _ -> Alcotest.fail "duplicate JSONL keys must be Schema_mismatch");
  (* unterminated quote = truncated record, reported with its line *)
  (match Csv_io.parse_result ~name:"R" "A,B\n1,\"x" with
  | Error (E.Parse { line = Some 2; _ }) -> ()
  | _ -> Alcotest.fail "unterminated quote must be Parse at line 2");
  (* a non-hex \u escape used to escape as Failure (int_of_string) *)
  (match Jsonl_io.parse_result ~name:"R" "{\"A\": \"\\uZZZZ\"}" with
  | Error (E.Parse { line = Some 1; _ }) -> ()
  | _ -> Alcotest.fail "bad \\u escape must be Parse at line 1");
  (match Jsonl_io.parse_result ~name:"R" "{\"A\": \"\\u12" with
  | Error (E.Parse _) -> ()
  | _ -> Alcotest.fail "truncated \\u escape must be Parse")

let test_io_error_files () =
  let module E = Repair_runtime.Repair_error in
  let missing = Filename.temp_file "repair_test" ".gone" in
  Sys.remove missing;
  (match E.guard (fun () -> Csv_io.load ~name:"R" missing) with
  | Error (E.Io { file; detail }) ->
    Alcotest.(check string) "io error carries path" missing file;
    Alcotest.(check string) "and names it once" "No such file or directory"
      detail
  | _ -> Alcotest.fail "missing CSV file must be Io");
  (match E.guard (fun () -> Jsonl_io.load ~name:"R" missing) with
  | Error (E.Io _) -> ()
  | _ -> Alcotest.fail "missing JSONL file must be Io");
  let dir = Filename.temp_file "repair_test" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Unix.rmdir dir)
    (fun () ->
      match E.guard (fun () -> Csv_io.load ~name:"R" dir) with
      | Error (E.Io { detail; _ }) ->
        Alcotest.(check string) "directory" "Is a directory" detail
      | _ -> Alcotest.fail "directory must be Io")

(* ---------- properties ---------- *)

let prop_group_by_partitions =
  qcheck "group_by partitions the table"
    (gen_table ~max_size:10 small_schema)
    (fun t ->
      let groups = Table.group_by t (Attr_set.of_list [ "A"; "B" ]) in
      let total = List.fold_left (fun acc (_, s) -> acc + Table.size s) 0 groups in
      total = Table.size t
      && List.for_all (fun (_, s) -> Table.is_subset_of s t) groups)

let prop_dist_sub_additive =
  qcheck "dist_sub = total − kept weight" (gen_table ~weighted:true small_schema)
    (fun t ->
      let ids = Table.ids t in
      let half = List.filteri (fun i _ -> i mod 2 = 0) ids in
      let s = Table.restrict t half in
      consistent_distance_eq
        (Table.dist_sub s t)
        (Table.total_weight t -. Table.total_weight s))

let prop_hamming_triangle =
  qcheck "hamming satisfies triangle inequality"
    QCheck2.Gen.(
      triple (gen_tuple small_schema) (gen_tuple small_schema)
        (gen_tuple small_schema))
    (fun (a, b, c) -> Tuple.hamming a c <= Tuple.hamming a b + Tuple.hamming b c)

let prop_jsonl_roundtrip =
  qcheck "jsonl roundtrips arbitrary nonempty int tables"
    (gen_table ~weighted:true ~max_size:12 small_schema)
    (fun t ->
      (* an empty table has no lines, hence no schema to reconstruct *)
      Table.is_empty t
      || Table.equal t (Jsonl_io.parse_string ~name:"R" (Jsonl_io.to_string t)))

let prop_csv_roundtrip =
  qcheck "csv roundtrips arbitrary int tables"
    (gen_table ~weighted:true ~max_size:12 small_schema)
    (fun t ->
      Table.equal t (Csv_io.parse_string ~name:"R" (Csv_io.to_string t)))

let () =
  Alcotest.run "relational"
    [ ( "value",
        [ Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "hash" `Quick test_value_hash_consistent;
          Alcotest.test_case "of_string" `Quick test_value_of_string;
          Alcotest.test_case "of_substring" `Quick test_value_of_substring;
          Alcotest.test_case "pp" `Quick test_value_pp_roundtrip;
          Alcotest.test_case "supply collision-free" `Quick test_supply_avoids_collisions;
          Alcotest.test_case "supply start" `Quick test_supply_fresh_start ] );
      ( "attr_set",
        [ Alcotest.test_case "basics" `Quick test_attr_set_basic;
          Alcotest.test_case "pp" `Quick test_attr_set_pp;
          Alcotest.test_case "subsets" `Quick test_attr_set_subsets ] );
      ( "schema+tuple",
        [ Alcotest.test_case "schema" `Quick test_schema_basic;
          Alcotest.test_case "tuple ops" `Quick test_tuple_ops;
          Alcotest.test_case "hamming" `Quick test_tuple_hamming;
          Alcotest.test_case "agree_on" `Quick test_tuple_agree_on ] );
      ( "table",
        [ Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "add checks" `Quick test_table_add_checks;
          Alcotest.test_case "finite weights" `Quick test_table_weight_finite;
          prop_builder_ids_like_add;
          Alcotest.test_case "fresh ids" `Quick test_table_fresh_ids;
          Alcotest.test_case "select/group" `Quick test_table_select_group;
          Alcotest.test_case "project distinct" `Quick test_table_project_distinct;
          Alcotest.test_case "restrict/remove/union" `Quick test_table_restrict_remove_union;
          Alcotest.test_case "subset/update" `Quick test_table_subset_update_checks;
          Alcotest.test_case "distances" `Quick test_table_distances;
          Alcotest.test_case "active domain" `Quick test_table_active_domain;
          Alcotest.test_case "map_weights" `Quick test_table_map_weights ] );
      ( "jsonl",
        [ Alcotest.test_case "roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "escapes" `Quick test_jsonl_strings_and_escapes;
          Alcotest.test_case "unicode escapes" `Quick
            test_jsonl_unicode_escapes;
          Alcotest.test_case "input variants" `Quick test_jsonl_input_variants;
          Alcotest.test_case "implicit ids" `Quick test_jsonl_implicit_ids;
          Alcotest.test_case "errors" `Quick test_jsonl_errors;
          Alcotest.test_case "fractional weight" `Quick test_jsonl_fractional_weight;
          Alcotest.test_case "file roundtrips" `Quick test_file_io_roundtrips ] );
      ( "database",
        [ Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "distances" `Quick test_database_distances ] );
      ( "csv",
        [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "no meta" `Quick test_csv_no_meta;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "non-finite weights" `Quick test_nonfinite_weights;
          Alcotest.test_case "dialect" `Quick test_csv_dialect;
          Alcotest.test_case "load memory" `Quick test_csv_load_memory;
          prop_csv_junk_like_seed;
          prop_csv_text_like_seed;
          prop_csv_render_like_seed;
          prop_csv_cr_roundtrip ] );
      ( "io-errors",
        [ Alcotest.test_case "classes" `Quick test_io_error_classes;
          Alcotest.test_case "files" `Quick test_io_error_files;
          prop_csv_errors_classified;
          prop_jsonl_errors_classified ] );
      ( "properties",
        [ prop_jsonl_roundtrip;
          prop_group_by_partitions;
          prop_dist_sub_additive;
          prop_hamming_triangle;
          prop_csv_roundtrip ] ) ]
