(* Shared test utilities: alcotest testables, qcheck generators for tables
   and FD sets, and tolerance helpers. *)

open Repair_relational
open Repair_fd

let attr_set = Alcotest.testable Attr_set.pp Attr_set.equal
let fd = Alcotest.testable Fd.pp Fd.equal
let fd_set = Alcotest.testable Fd_set.pp Fd_set.equal_syntactic
let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal
let table = Alcotest.testable Table.pp Table.equal

let feq ?(eps = 1e-9) () = Alcotest.float eps

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (feq ~eps ()) msg expected actual

(* ---------- qcheck generators ---------- *)

let small_schema = Schema.make "R" [ "A"; "B"; "C" ]

(* A tuple over [schema] with values drawn from 1..dom per column. *)
let gen_tuple ?(dom = 3) schema =
  QCheck2.Gen.(
    list_repeat (Schema.arity schema) (int_range 1 dom)
    |> map (fun vs -> Tuple.make (List.map Value.int vs)))

(* A table of [size] tuples; optionally weighted with small integer
   weights. *)
let gen_table ?(dom = 3) ?(max_size = 8) ?(weighted = false) schema =
  QCheck2.Gen.(
    int_range 0 max_size >>= fun n ->
    list_repeat n (pair (gen_tuple ~dom schema) (int_range 1 3))
    |> map (fun rows ->
           List.fold_left
             (fun tbl (t, w) ->
               let weight = if weighted then float_of_int w else 1.0 in
               Table.add ~weight tbl t)
             (Table.empty schema) rows))

(* Random nontrivial FDs over the attributes of [schema]. *)
let gen_fd schema =
  let attrs = Schema.attributes schema in
  QCheck2.Gen.(
    let* lhs_mask = int_range 1 ((1 lsl List.length attrs) - 1) in
    let lhs =
      Attr_set.of_list
        (List.filteri (fun i _ -> lhs_mask land (1 lsl i) <> 0) attrs)
    in
    let outside = List.filter (fun a -> not (Attr_set.mem a lhs)) attrs in
    match outside with
    | [] ->
      (* lhs = all attributes; use a singleton lhs instead. *)
      let a = List.hd attrs and b = List.nth attrs 1 in
      return (Fd.make (Attr_set.singleton a) (Attr_set.singleton b))
    | _ ->
      let* rhs = oneofl outside in
      return (Fd.make lhs (Attr_set.singleton rhs)))

let gen_fd_set ?(max_fds = 3) schema =
  QCheck2.Gen.(
    int_range 1 max_fds >>= fun n ->
    list_repeat n (gen_fd schema) |> map Fd_set.of_list)

(* Any FD over [schema]: the rhs is any nonempty attribute set, so
   multi-attribute and trivial FDs occur; the lhs may be empty (a
   consensus FD ∅ → Y) unless [consensus] is false. *)
let gen_any_fd ?(consensus = true) schema =
  let attrs = Schema.attributes schema in
  let subset mask =
    Attr_set.of_list (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) attrs)
  in
  let full = (1 lsl List.length attrs) - 1 in
  QCheck2.Gen.(
    map2
      (fun l r -> Fd.make (subset l) (subset r))
      (int_range (if consensus then 0 else 1) full)
      (int_range 1 full))

(* ---------- oracles ---------- *)

(* The all-pairs violation scan: every pair i < j in id order, then every
   FD in Δ order. [Fd_set.violations] looks only inside lhs groups and
   must return exactly this list, order included. *)
let violations_all_pairs d tbl =
  let schema = Table.schema tbl in
  let rows = List.map (fun i -> (i, Table.tuple tbl i)) (Table.ids tbl) in
  let rec per_first acc = function
    | [] -> acc
    | (i, ti) :: rest ->
      let acc =
        List.fold_left
          (fun acc (j, tj) ->
            List.fold_left
              (fun acc fd ->
                if Fd.holds_on schema ti tj fd then acc else (i, j, fd) :: acc)
              acc (Fd_set.to_list d))
          acc rest
      in
      per_first acc rest
  in
  List.rev (per_first [] rows)

let same_violations v1 v2 =
  List.equal
    (fun (i1, j1, fd1) (i2, j2, fd2) -> i1 = i2 && j1 = j2 && Fd.equal fd1 fd2)
    v1 v2

(* Wrap a qcheck property as an alcotest case. The generation seed is
   fixed so failures reproduce run-to-run; [print] renders the
   counterexample (for instance-by-seed generators, the seed itself). *)
let qcheck ?(count = 100) ?(seed = 0xC0FFEE) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ?print gen prop)

let consistent_distance_eq ?(eps = 1e-6) a b = Float.abs (a -. b) < eps
