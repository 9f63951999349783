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

let groups_agree tbl m x =
  let got = Table.group_by tbl x in
  let want = model_group_by m x in
  List.length got = List.length want
  && List.for_all2
       (fun (k1, sub) (k2, msub) ->
         Tuple.equal k1 k2 && Table.equal sub (table_of_model msub))
       got want

let prop_group_by_model =
  qcheck ~count:300 "group_by agrees with the seed Imap semantics"
    gen_table_and_attrs
    (fun (tbl, x) -> groups_agree tbl (model_of_table tbl) x)

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

(* ---------- the classifier's consumers vs the model ---------- *)

(* Every grouping reads the one classifier over the code columns, so
   each consumer is checked on three layouts of a generated table: the
   table itself, a [select] sub-view of it, and a cross-store [union]
   whose second operand's values were re-interned into the first's
   pool. A model's positions are its bindings in id order. *)
let layouts (t1, t2) =
  let shift = Table.size t1 + 1 in
  let t2 =
    Table.of_list small_schema
      (Table.fold (fun i t w acc -> (i + shift, w, t) :: acc) t2 [])
  in
  [ t1; Table.select t1 (fun i _ -> i mod 3 <> 1); Table.union t1 t2 ]

let gen_layouts =
  QCheck2.Gen.(
    triple
      (gen_table ~dom:3 ~max_size:12 ~weighted:true small_schema)
      (gen_table ~dom:4 ~max_size:8 ~weighted:true small_schema)
      (pair (gen_attrs small_schema) (int_range 0 1_000_000)))

let on_layouts prop (t1, t2, (x, seed)) =
  List.for_all
    (fun tbl -> prop tbl (model_of_table tbl) x (Random.State.make [| seed |]))
    (layouts (t1, t2))

let model_tuples m =
  Array.of_list (List.map (fun (_, (t, _)) -> t) (Imap.bindings m.m_rows))

module Class_map = Map.Make (struct
  type t = int * Tuple.t

  let compare (c1, k1) (c2, k2) =
    match Int.compare c1 c2 with 0 -> Tuple.compare k1 k2 | c -> c
end)

(* (class, key) pairs numbered by first occurrence along [keys]. *)
let number_by_first_seen keys =
  let seen = ref Class_map.empty and count = ref 0 in
  let out =
    List.map
      (fun key ->
        match Class_map.find_opt key !seen with
        | Some g -> g
        | None ->
          let g = !count in
          incr count;
          seen := Class_map.add key g !seen;
          g)
      keys
  in
  (out, !count)

(* Positions [ps] grouped by key: groups in first-seen order, members in
   input order. *)
let model_group_within m ps x =
  let ts = model_tuples m in
  let keys = List.map (fun p -> (0, Tuple.project m.m_schema ts.(p) x)) ps in
  let classes, count = number_by_first_seen keys in
  List.init count (fun g ->
      List.combine classes ps
      |> List.filter_map (fun (c, p) -> if c = g then Some p else None)
      |> Array.of_list)

let model_groups m x =
  let ts = model_tuples m in
  Array.to_list ts
  |> List.mapi (fun p t -> (Tuple.project m.m_schema t x, p))
  |> List.fold_left
       (fun acc (key, p) ->
         Tmap.update key
           (fun ps -> Some (p :: Option.value ~default:[] ps))
           acc)
       Tmap.empty
  |> Tmap.bindings
  |> List.map (fun (key, ps) -> (key, Array.of_list (List.rev ps)))

let prop_view_groups_model =
  qcheck ~count:300 "View.groups agrees with the model" gen_layouts
    (on_layouts (fun tbl m x _ ->
         let got = Table.View.groups tbl x and want = model_groups m x in
         List.length got = List.length want
         && List.for_all2
              (fun (k1, ps1) (k2, ps2) -> Tuple.equal k1 k2 && ps1 = ps2)
              got want))

let prop_view_group_within_model =
  qcheck ~count:300
    "View.group_within on a position subset agrees with the model" gen_layouts
    (on_layouts (fun tbl m x st ->
         let ps =
           List.init (Table.size tbl) Fun.id
           |> List.filter (fun _ -> Random.State.bool st)
           |> List.map (fun p -> (Random.State.bits st, p))
           |> List.sort compare |> List.map snd
         in
         Table.View.group_within tbl (Array.of_list ps) x
         = model_group_within m ps x))

(* The model's new class is the pair (old class, key), numbered by first
   position. *)
let prop_view_refine_model =
  qcheck ~count:300 "View.refine agrees with the model" gen_layouts
    (on_layouts (fun tbl m x st ->
         let classes =
           Array.init (Table.size tbl) (fun _ -> Random.State.int st 3)
         in
         let ts = model_tuples m in
         let keys =
           List.init (Array.length ts) (fun p ->
               (classes.(p), Tuple.project m.m_schema ts.(p) x))
         in
         let want, count = number_by_first_seen keys in
         Table.View.refine tbl classes x = (Array.of_list want, count)))

let model_values m cols =
  Imap.fold
    (fun _ (t, _) acc -> List.map (Tuple.get t) cols @ acc)
    m.m_rows []
  |> List.sort_uniq Value.compare

let prop_domains_model =
  qcheck ~count:300 "active_domain and all_values agree with the model"
    gen_layouts
    (on_layouts (fun tbl m _ _ ->
         let schema = m.m_schema in
         List.equal Value.equal (all_values tbl)
           (model_values m (List.init (Schema.arity schema) Fun.id))
         && List.for_all
              (fun a ->
                List.equal Value.equal (Table.active_domain tbl a)
                  (model_values m [ Schema.index_of schema a ]))
              (Schema.attributes schema)))

let prop_duplicate_free_model =
  qcheck ~count:300 "is_duplicate_free agrees with the model" gen_layouts
    (on_layouts (fun tbl m _ _ ->
         let distinct =
           Imap.fold (fun _ (t, _) acc -> Tmap.add t () acc) m.m_rows Tmap.empty
         in
         Table.is_duplicate_free tbl
         = (Tmap.cardinal distinct = Imap.cardinal m.m_rows)))

(* ---------- construction-path equivalence ---------- *)

(* Random (id, weight, tuple) rows with distinct ids in shuffled order,
   about a quarter of them left implicit (an implicit id can then collide
   with a later explicit one). Folding [add] (exercising both the
   tip-append and the splice path) must give the same table or the same
   error as the Builder, fed tuples through [add] or codes through
   [add_codes], and as [of_list] when every id is explicit. *)
let gen_rows =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* perm = shuffle_l (List.init n (fun i -> (i * 3) + 1)) in
    let* ids =
      flatten_l
        (List.map (fun i -> frequencyl [ (3, Some i); (1, None) ]) perm)
    in
    let* tws = list_repeat n (pair (gen_tuple ~dom:3 small_schema) (int_range 1 3)) in
    return (List.map2 (fun id (t, w) -> (id, float_of_int w, t)) ids tws))

let prop_builder_vs_fold_add =
  qcheck ~count:300
    "of_list equals folding add over shuffled ids, as do Builder.add and \
     add_codes with implicit ids"
    gen_rows
    (fun rows ->
      let result f = try Ok (f ()) with Invalid_argument m -> Error m in
      let folded =
        result (fun () ->
            List.fold_left
              (fun tbl (id, weight, t) -> Table.add ?id ~weight tbl t)
              (Table.empty small_schema) rows)
      in
      let built add =
        result (fun () ->
            let b = Table.Builder.create ~capacity:1 small_schema in
            List.iter (fun (id, weight, t) -> add b id weight t) rows;
            Table.Builder.build b)
      in
      let via_tuple b id weight t = Table.Builder.add ?id ~weight b t in
      let via_codes b id weight t =
        let pool = Table.Builder.pool b in
        Table.Builder.add_codes ?id ~weight b
          (Array.of_list (List.map (Interner.intern pool) (Tuple.values t)))
      in
      let explicit =
        if List.for_all (fun (id, _, _) -> Option.is_some id) rows then
          [ result (fun () ->
                Table.of_list small_schema
                  (List.map (fun (id, w, t) -> (Option.get id, w, t)) rows)) ]
        else []
      in
      List.for_all
        (fun r ->
          match (folded, r) with
          | Ok t1, Ok t2 -> Table.equal t1 t2
          | Error m1, Error m2 -> m1 = m2
          | _ -> false)
        ([ built via_tuple; built via_codes ] @ explicit))

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

(* ---------- map_tuples ---------- *)

(* Every third cell is kept as the very same value, every third is
   rewritten, and every third is rebuilt as an equal value in a fresh
   block; rows with an even id are not mapped at all. *)
let remap i t =
  if i mod 2 = 0 then t
  else
    Tuple.make
      (List.mapi
         (fun c v ->
           match (v, (i + c) mod 3) with
           | _, 0 -> v
           | Value.Int k, 1 -> Value.int (((k + i) mod 4) + 1)
           | Value.Int k, _ -> Value.int k
           | v, _ -> v)
         (Tuple.values t))

(* The mapped table must equal the model's, and grouping it — which reads
   the code columns, copied for kept cells and interned for the others —
   must agree with grouping the model, on a whole store and on a view. *)
let prop_map_tuples_model =
  qcheck ~count:300 "map_tuples agrees with the model on kept and new cells"
    gen_table_and_attrs
    (fun (tbl, x) ->
      List.for_all
        (fun src ->
          let m = model_of_table src in
          let m = { m with m_rows = Imap.mapi (fun i (t, w) -> (remap i t, w)) m.m_rows } in
          let u = Table.map_tuples src remap in
          Table.equal u (table_of_model m) && groups_agree u m x)
        [ tbl; Table.select tbl (fun i _ -> i mod 3 <> 1) ])

(* [dist_upd] compares codes when both tables share a pool and values
   otherwise; both must give the model's sum (by id, in id order) bit
   for bit, on a whole store, a [select] sub-view and a cross-store
   [union]. The update is the mapped table itself (shared pool) and a
   copy of it built row by row (its own pool). *)
let prop_dist_upd_model =
  qcheck ~count:300 "dist_upd agrees with the model on own and shared pools"
    gen_layouts
    (on_layouts (fun tbl _ _ _ ->
         let u = Table.map_tuples tbl remap in
         let copy =
           Table.of_list (Table.schema u)
             (Table.fold (fun i t w acc -> (i, w, t) :: acc) u [])
         in
         List.for_all
           (fun u -> Float.equal (Table.dist_upd u tbl) (U_by_id.dist_upd u tbl))
           [ u; copy ]))

(* Some cells become fresh constants, bare or inside a pair, so the
   floor depends on which rows a layout shows. *)
let freshen i t =
  Tuple.make
    (List.mapi
       (fun c v ->
         match (v, (i + c) mod 4) with
         | Value.Int k, 0 -> Value.Fresh (k * i)
         | Value.Int k, 1 -> Value.pair (Value.int k) (Value.Fresh (i + c))
         | v, _ -> v)
       (Tuple.values t))

let prop_fresh_supply_model =
  qcheck ~count:300 "fresh_supply agrees with the model" gen_layouts
    (fun (t1, t2, rest) ->
      on_layouts
        (fun tbl m _ _ ->
          let all = List.init (Schema.arity m.m_schema) Fun.id in
          Value.equal
            (Value.Supply.next (Table.fresh_supply tbl))
            (Value.Supply.next (Value.Supply.starting_above (model_values m all))))
        (Table.map_tuples t1 freshen, Table.map_tuples t2 freshen, rest))

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

(* ---------- the interner ---------- *)

(* The pool against an association list from values to codes: values
   of all six constructors, ints entering through [intern] and through
   [intern_int], and enough distinct values for several growths. Codes
   must be dense and first-seen, [code_opt] must find exactly the
   interned values, and [value] and [to_array] must decode them. *)
let prop_interner_model =
  qcheck ~count:200 "interner agrees with an association-list model"
    QCheck2.Gen.(
      let leaf =
        frequency
          [ (4, map (fun i -> `Int i) (int_range (-150) 150));
            (2, map (fun i -> `Val (Value.str (string_of_int i))) (int_range 0 80));
            (1, return (`Val Value.Unit));
            (1, map (fun i -> `Val (Value.Fresh i)) (int_range 0 20));
            (1, map2 (fun a b -> `Val (Value.pair (Value.int a) (Value.str b)))
                  (int_range 0 5) (oneofl [ "x"; "1" ]));
            (1, map (fun a -> `Val (Value.triple (Value.int a) Value.Unit (Value.Fresh a)))
                  (int_range 0 5)) ]
      in
      list_size (int_range 0 600) (pair leaf bool))
    (fun ops ->
      let p = Interner.create () in
      let model = ref [] and next = ref 0 in
      List.for_all
        (fun (op, by_int) ->
          let v = match op with `Int i -> Value.int i | `Val v -> v in
          let want =
            match List.find_opt (fun (w, _) -> Value.equal v w) !model with
            | Some (_, c) -> c
            | None ->
              let c = !next in
              model := (v, c) :: !model;
              incr next;
              c
          in
          let got =
            match op with
            | `Int i when by_int -> Interner.intern_int p i
            | _ -> Interner.intern p v
          in
          got = want)
        ops
      && Interner.size p = !next
      && List.for_all
           (fun (v, c) ->
             Interner.code_opt p v = Some c
             && Value.equal (Interner.value p c) v
             && Value.equal (Interner.to_array p).(c) v)
           !model
      && Array.length (Interner.to_array p) = !next
      && List.for_all
           (fun v -> Interner.code_opt p v = None)
           [ Value.int 151; Value.str "81"; Value.Fresh 21;
             Value.pair (Value.int 6) (Value.str "x") ])

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
          prop_map_tuples_model;
          Alcotest.test_case "union duplicate id" `Quick
            test_union_duplicate_id;
          prop_dist_upd_model;
          prop_fresh_supply_model ] );
      ( "classifier users",
        [ prop_view_groups_model;
          prop_view_group_within_model;
          prop_view_refine_model;
          prop_domains_model;
          prop_duplicate_free_model ] );
      ( "construction paths",
        [ prop_builder_vs_fold_add; prop_views_are_persistent;
          prop_interner_model ] );
      ( "repair bit-identity",
        [ prop_opt_s_repair_bit_identical ] );
      ( "io", [ prop_csv_roundtrip_bulk; prop_jsonl_roundtrip_bulk ] ) ]
