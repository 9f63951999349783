(* Equivalence suite for the columnar table core.

   The seed implementation stored tables as [row Imap.t] and derived
   every relational operation from map primitives. The columnar core
   replaces the representation with id-slice views over shared arrays;
   this suite pins the observable semantics to the seed's by re-running
   each operation against a straightforward [Map]-based model and
   requiring [Table.equal] on materialized results — plus bit-identical
   (no-epsilon) [Opt_s_repair] weights across construction paths. *)

open Repair_relational
open Helpers
module Imap = Map.Make (Int)

module Tmap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type model = { m_schema : Schema.t; m_rows : (Tuple.t * float) Imap.t }

let model_of_table tbl =
  {
    m_schema = Table.schema tbl;
    m_rows =
      Table.fold (fun i t w acc -> Imap.add i (t, w) acc) tbl Imap.empty;
  }

let table_of_model m =
  Table.of_list m.m_schema
    (List.map (fun (i, (t, w)) -> (i, w, t)) (Imap.bindings m.m_rows))

(* Seed [group_by]: collect distinct keys into a [Tmap] (hence key-sorted
   output), then one [Imap.filter] over all rows per key. *)
let model_group_by m x =
  let keys =
    Imap.fold
      (fun _ (t, _) acc -> Tmap.add (Tuple.project m.m_schema t x) () acc)
      m.m_rows Tmap.empty
  in
  Tmap.bindings keys
  |> List.map (fun (key, ()) ->
         let rows =
           Imap.filter
             (fun _ (t, _) ->
               Tuple.equal (Tuple.project m.m_schema t x) key)
             m.m_rows
         in
         (key, { m with m_rows = rows }))

let model_select m p =
  { m with m_rows = Imap.filter (fun i (t, _) -> p i t) m.m_rows }

let model_union m1 m2 =
  {
    m1 with
    m_rows =
      Imap.union (fun i _ _ -> invalid_arg (string_of_int i)) m1.m_rows
        m2.m_rows;
  }

let model_project_distinct m x =
  model_group_by m x |> List.map fst

(* Random attribute subsets of the test schema, empty included (the
   empty set is the consensus-FD grouping case). *)
let gen_attrs schema =
  let attrs = Schema.attributes schema in
  QCheck2.Gen.(
    int_range 0 ((1 lsl List.length attrs) - 1)
    |> map (fun mask ->
           Attr_set.of_list
             (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) attrs)))

let gen_table_and_attrs =
  QCheck2.Gen.(
    pair
      (gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema)
      (gen_attrs small_schema))

(* ---------- group_by / project_distinct vs the model ---------- *)

let prop_group_by_model =
  qcheck ~count:300 "group_by agrees with the seed Imap semantics"
    gen_table_and_attrs
    (fun (tbl, x) ->
      let got = Table.group_by tbl x in
      let want = model_group_by (model_of_table tbl) x in
      List.length got = List.length want
      && List.for_all2
           (fun (k1, sub) (k2, msub) ->
             Tuple.equal k1 k2 && Table.equal sub (table_of_model msub))
           got want)

let prop_project_distinct_model =
  qcheck ~count:300 "project_distinct agrees with the seed semantics"
    gen_table_and_attrs
    (fun (tbl, x) ->
      let got = Table.project_distinct tbl x in
      let want = model_project_distinct (model_of_table tbl) x in
      List.length got = List.length want
      && List.for_all2 Tuple.equal got want)

(* ---------- select / restrict / remove vs the model ---------- *)

let pred tbl i t =
  (i mod 2 = 0) || Value.compare (Tuple.get t 0) (Value.int 2) < 0
  [@@warning "-27"]

let prop_select_model =
  qcheck ~count:300 "select agrees with the seed Imap.filter"
    (gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema)
    (fun tbl ->
      let p = pred tbl in
      Table.equal (Table.select tbl p)
        (table_of_model (model_select (model_of_table tbl) p)))

let prop_restrict_remove_model =
  qcheck ~count:300 "restrict/remove agree with the seed semantics"
    QCheck2.Gen.(
      pair
        (gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema)
        (list_size (int_range 0 8) (int_range 0 15)))
    (fun (tbl, ids) ->
      let m = model_of_table tbl in
      Table.equal (Table.restrict tbl ids)
        (table_of_model (model_select m (fun i _ -> List.mem i ids)))
      && Table.equal (Table.remove tbl ids)
           (table_of_model (model_select m (fun i _ -> not (List.mem i ids)))))

(* ---------- union vs the model ---------- *)

let prop_union_same_store =
  qcheck ~count:300 "same-store union splices two views back together"
    (gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema)
    (fun tbl ->
      let p i _ = i mod 2 = 0 in
      let evens = Table.select tbl p in
      let odds = Table.select tbl (fun i t -> not (p i t)) in
      Table.equal (Table.union evens odds) tbl
      && Table.equal (Table.union odds evens) tbl)

let prop_union_cross_store =
  qcheck ~count:300 "cross-store union agrees with the seed Imap.union"
    QCheck2.Gen.(
      pair
        (gen_table ~dom:3 ~max_size:8 ~weighted:true small_schema)
        (gen_table ~dom:4 ~max_size:8 ~weighted:true small_schema))
    (fun (t1, t2) ->
      (* shift t2's ids past t1's so the id sets are disjoint *)
      let shift = Table.size t1 + 1 in
      let t2 =
        Table.of_list small_schema
          (Table.fold (fun i t w acc -> (i + shift, w, t) :: acc) t2 [])
      in
      let m = model_union (model_of_table t1) (model_of_table t2) in
      Table.equal (Table.union t1 t2) (table_of_model m))

let test_union_duplicate_id () =
  let t1 = Table.of_tuples small_schema [ Tuple.make (List.map Value.int [ 1; 2; 3 ]) ] in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Table.union: identifier 1 in both") (fun () ->
      ignore (Table.union t1 t1));
  let row id = (id, 1.0, Tuple.make (List.map Value.int [ id; 0; 0 ])) in
  let tbl ids = Table.of_list small_schema (List.map row ids) in
  Alcotest.check_raises "union_all: duplicate id across operands"
    (Invalid_argument "Table.union: identifier 2 in both") (fun () ->
      ignore
        (Table.union_all small_schema [ tbl [ 1; 2 ]; tbl [ 3 ]; tbl [ 2 ] ]))

(* Any split of a table into same-store views — some empty, one operand
   when k = 1, in shuffled order — unions back to the table, and equals
   the left fold of [union]. *)
let prop_union_all_same_store =
  qcheck ~count:300 "union_all of a same-store split is the table and the fold"
    QCheck2.Gen.(
      let* tbl = gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema in
      let* k = int_range 1 6 in
      let* part = list_repeat (Table.size tbl) (int_range 0 (k - 1)) in
      let* order = shuffle_l (List.init k Fun.id) in
      return (tbl, part, order))
    (fun (tbl, part, order) ->
      let part_of = Hashtbl.create 16 in
      List.iter2 (Hashtbl.replace part_of) (Table.ids tbl) part;
      let ops =
        List.map
          (fun j -> Table.select tbl (fun i _ -> Hashtbl.find part_of i = j))
          order
      in
      let got = Table.union_all small_schema ops in
      Table.equal got tbl
      && Table.equal got
           (List.fold_left Table.union (Table.empty small_schema) ops))

let prop_union_all_cross_store =
  qcheck ~count:300 "cross-store union_all agrees with the fold"
    QCheck2.Gen.(
      list_size (int_range 0 5)
        (gen_table ~dom:4 ~max_size:6 ~weighted:true small_schema))
    (fun tables ->
      (* give every table its own id range so the id sets are disjoint *)
      let ops =
        List.mapi
          (fun k t ->
            Table.fold (fun i tp w acc -> (i + (100 * k), w, tp) :: acc) t []
            |> Table.of_list small_schema)
          tables
      in
      Table.equal
        (Table.union_all small_schema ops)
        (List.fold_left Table.union (Table.empty small_schema) ops))

(* ---------- construction-path equivalence ---------- *)

(* Random (id, weight, tuple) rows with distinct ids in shuffled order:
   folding [add] (exercising both the tip-append and the splice path)
   must equal the bulk [of_list]/Builder path. *)
let gen_rows =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* perm = shuffle_l (List.init n (fun i -> (i * 3) + 1)) in
    let* tws = list_repeat n (pair (gen_tuple ~dom:3 small_schema) (int_range 1 3)) in
    return (List.map2 (fun id (t, w) -> (id, float_of_int w, t)) perm tws))

let prop_builder_vs_fold_add =
  qcheck ~count:300 "of_list equals folding add over shuffled explicit ids"
    gen_rows
    (fun rows ->
      let bulk = Table.of_list small_schema rows in
      let folded =
        List.fold_left
          (fun tbl (id, weight, t) -> Table.add ~id ~weight tbl t)
          (Table.empty small_schema) rows
      in
      Table.equal bulk folded)

let prop_views_are_persistent =
  qcheck ~count:300 "adding to the base never changes existing views"
    gen_table_and_attrs
    (fun (tbl, x) ->
      let groups = Table.group_by tbl x in
      let snapshots =
        List.map (fun (_, sub) -> (model_of_table sub, sub)) groups
      in
      (* grow the base (tip-append) and one of the views (splice path) *)
      let fresh = Tuple.make (List.map Value.int [ 9; 9; 9 ]) in
      let _ = Table.add tbl fresh in
      let _ =
        match groups with
        | (_, sub) :: _ -> Table.add sub fresh
        | [] -> Table.add tbl fresh
      in
      List.for_all
        (fun (snap, sub) -> Table.equal (table_of_model snap) sub)
        snapshots)

(* ---------- OptSRepair representation-independence ---------- *)

(* The same logical table reached through three different construction
   paths (incremental adds, bulk Builder, a select-view of a larger
   store) must give bit-identical OptSRepair results: equal repairs and
   [Float.equal] distances, no epsilon. *)
let prop_opt_s_repair_bit_identical =
  qcheck ~count:150 "OptSRepair weights are bit-identical across layouts"
    QCheck2.Gen.(
      pair
        (gen_table ~dom:3 ~max_size:10 ~weighted:true small_schema)
        (gen_fd_set small_schema))
    (fun (tbl, fds) ->
      let module Opt_s = Repair_srepair.Opt_s_repair in
      let bulk =
        Table.of_list small_schema
          (List.rev (Table.fold (fun i t w acc -> (i, w, t) :: acc) tbl []))
      in
      let view =
        (* pad with rows beyond the max id, then select them away *)
        let padded =
          Table.add
            (Table.add tbl (Tuple.make (List.map Value.int [ 7; 8; 9 ])))
            (Tuple.make (List.map Value.int [ 8; 9; 7 ]))
        in
        Table.restrict padded (Table.ids tbl)
      in
      Table.equal bulk tbl && Table.equal view tbl
      &&
      match
        (Opt_s.run fds tbl, Opt_s.run fds bulk, Opt_s.run fds view)
      with
      | Ok r1, Ok r2, Ok r3 ->
        Table.equal r1 r2 && Table.equal r1 r3
        && Float.equal (Table.dist_sub r1 tbl) (Table.dist_sub r2 bulk)
        && Float.equal (Table.dist_sub r1 tbl) (Table.dist_sub r3 view)
      | Error s1, Error s2, Error s3 ->
        Repair_fd.Fd_set.equal_syntactic s1 s2
        && Repair_fd.Fd_set.equal_syntactic s1 s3
      | _ -> false)

(* ---------- IO round-trips through the Builder ---------- *)

let prop_csv_roundtrip_bulk =
  qcheck ~count:150 "csv round-trip through the bulk Builder"
    (gen_table ~dom:3 ~max_size:10 ~weighted:true small_schema)
    (fun tbl ->
      let s = Csv_io.to_string tbl in
      Table.equal tbl (Csv_io.parse_string ~name:"R" s))

let prop_jsonl_roundtrip_bulk =
  qcheck ~count:150 "jsonl round-trip through the bulk Builder"
    (gen_table ~dom:3 ~max_size:10 ~weighted:true small_schema)
    (fun tbl ->
      if Table.is_empty tbl then true
      else
        let s = Jsonl_io.to_string tbl in
        Table.equal tbl (Jsonl_io.parse_string ~name:"R" s))

let () =
  Alcotest.run "columnar"
    [ ( "model equivalence",
        [ prop_group_by_model;
          prop_project_distinct_model;
          prop_select_model;
          prop_restrict_remove_model;
          prop_union_same_store;
          prop_union_cross_store;
          prop_union_all_same_store;
          prop_union_all_cross_store;
          Alcotest.test_case "union duplicate id" `Quick
            test_union_duplicate_id ] );
      ( "construction paths",
        [ prop_builder_vs_fold_add; prop_views_are_persistent ] );
      ( "repair bit-identity",
        [ prop_opt_s_repair_bit_identical ] );
      ( "io", [ prop_csv_roundtrip_bulk; prop_jsonl_roundtrip_bulk ] ) ]
