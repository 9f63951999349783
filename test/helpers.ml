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

(* ---------- seed IO oracles ---------- *)

(* The first CSV reader and writer and the Format-based value printer,
   kept verbatim as executable specifications of the dialect and the
   output bytes. The one change since: [quote_field] quotes CRs too. *)

module Seed_value = struct
  let rec pp ppf = function
    | Value.Unit -> Fmt.string ppf "⊙"
    | Value.Int i -> Fmt.int ppf i
    | Value.Str s -> Fmt.string ppf s
    | Value.Pair (a, b) -> Fmt.pf ppf "⟨%a,%a⟩" pp a pp b
    | Value.Triple (a, b, c) -> Fmt.pf ppf "⟨%a,%a,%a⟩" pp a pp b pp c
    | Value.Fresh i -> Fmt.pf ppf "$%d" i

  let to_string v = Fmt.str "%a" pp v
end

module Seed_csv = struct
  module Repair_error = Repair_runtime.Repair_error

  exception Unterminated

  let parse_err ~file ?line fmt =
    Fmt.kstr
      (fun detail ->
        Repair_error.raise_error (Parse { source = file; line; detail }))
      fmt

  let split_records s =
    (* Split into records, honoring quotes (newlines inside quotes kept). *)
    let buf = Buffer.create 64 in
    let records = ref [] in
    let in_quotes = ref false in
    let flush () =
      records := Buffer.contents buf :: !records;
      Buffer.clear buf
    in
    String.iter
      (fun c ->
        match c with
        | '"' ->
          in_quotes := not !in_quotes;
          Buffer.add_char buf c
        | '\n' when not !in_quotes -> flush ()
        | '\r' when not !in_quotes -> ()
        | c -> Buffer.add_char buf c)
      s;
    if Buffer.length buf > 0 then flush ();
    List.rev !records |> List.filter (fun r -> String.trim r <> "")

  let split_fields record =
    let fields = ref [] in
    let buf = Buffer.create 16 in
    let n = String.length record in
    let flush () =
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf
    in
    let rec plain i =
      if i >= n then flush ()
      else
        match record.[i] with
        | ',' ->
          flush ();
          plain (i + 1)
        | '"' -> quoted (i + 1)
        | c ->
          Buffer.add_char buf c;
          plain (i + 1)
    and quoted i =
      if i >= n then raise Unterminated
      else
        match record.[i] with
        | '"' when i + 1 < n && record.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
        | '"' -> plain (i + 1)
        | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
    in
    plain 0;
    List.rev !fields

  let needs_quoting s =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

  let quote_field s =
    if needs_quoting s then
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' then Buffer.add_string buf "\"\""
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
    else s

  let parse_string ?(file = "<csv>") ~name s =
    match split_records s with
    | [] -> parse_err ~file "empty input"
    | header :: body ->
      let fields_of ~line record =
        try split_fields record
        with Unterminated ->
          parse_err ~file ~line "unterminated quoted field"
      in
      let cols = fields_of ~line:1 header |> List.map String.trim in
      let id_col = ref None and weight_col = ref None in
      let attrs =
        List.filteri
          (fun i c ->
            match c with
            | "#id" ->
              id_col := Some i;
              false
            | "#weight" ->
              weight_col := Some i;
              false
            | _ -> true)
          cols
      in
      if attrs = [] then parse_err ~file ~line:1 "no attribute columns";
      let schema =
        try Schema.make name attrs
        with Invalid_argument m ->
          Repair_error.raise_error
            (Schema_mismatch { source = file; detail = m })
      in
      let builder =
        Table.Builder.create ~capacity:(List.length body) schema
      in
      let parse_row line_no record =
        let fields = fields_of ~line:line_no record in
        if List.length fields <> List.length cols then
          parse_err ~file ~line:line_no "row has %d fields, expected %d"
            (List.length fields) (List.length cols);
        let id =
          Option.map
            (fun i ->
              match int_of_string_opt (List.nth fields i) with
              | Some v -> v
              | None -> parse_err ~file ~line:line_no "bad #id")
            !id_col
        in
        let weight =
          match !weight_col with
          | None -> 1.0
          | Some i -> (
            match float_of_string_opt (List.nth fields i) with
            | Some v -> v
            | None -> parse_err ~file ~line:line_no "bad #weight")
        in
        let vs =
          List.filteri
            (fun i _ -> Some i <> !id_col && Some i <> !weight_col)
            fields
          |> List.map Value.of_string
        in
        try Table.Builder.add ?id ~weight builder (Tuple.make vs)
        with Invalid_argument m -> parse_err ~file ~line:line_no "%s" m
      in
      List.iteri (fun k record -> parse_row (k + 2) record) body;
      Table.Builder.build builder

  let parse_result ?file ~name s =
    Repair_error.guard (fun () -> parse_string ?file ~name s)

  let to_string ?(with_meta = true) tbl =
    let schema = Table.schema tbl in
    let buf = Buffer.create 256 in
    let attrs = Schema.attributes schema in
    let header = (if with_meta then [ "#id"; "#weight" ] else []) @ attrs in
    Buffer.add_string buf (String.concat "," (List.map quote_field header));
    Buffer.add_char buf '\n';
    Table.iter
      (fun i t w ->
        let meta =
          if with_meta then [ string_of_int i; Printf.sprintf "%g" w ]
          else []
        in
        let fields =
          meta @ List.map Seed_value.to_string (Tuple.values t)
          |> List.map quote_field
        in
        Buffer.add_string buf (String.concat "," fields);
        Buffer.add_char buf '\n')
      tbl;
    Buffer.contents buf
end
