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
   output bytes. The changes since: [quote_field] quotes CRs too, and the
   reader folds [Table.add] instead of filling a [Table.Builder], so that
   it checks the Builder too. *)

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
      let parse_row tbl line_no record =
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
        try Table.add ?id ~weight tbl (Tuple.make vs)
        with Invalid_argument m -> parse_err ~file ~line:line_no "%s" m
      in
      List.fold_left
        (fun (tbl, line_no) record -> (parse_row tbl line_no record, line_no + 1))
        (Table.empty schema, 2) body
      |> fst

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

(* ---------- OptSRepair as a per-node recursion ---------- *)

(* Algorithm 1 as the recursion the plan executor replaced, kept as the
   differential oracle of [Opt_s_repair.run], [solve_block] and
   [Count]: every node ticks the budget, re-derives its step, groups
   its block with [Table.group_by], solves each group and combines the
   block repairs. Sequential, and without spans. *)
module Recursive_osr = struct
  module Simplify = Repair_dichotomy.Simplify
  module Budget = Repair_runtime.Budget

  exception Stuck = Repair_srepair.Opt_s_repair.Stuck

  let matching schema x1 x2 blocks =
    let module Tmap = Map.Make (struct
      type t = Tuple.t

      let compare = Tuple.compare
    end) in
    let blocks =
      List.map
        (fun (witness, s) ->
          (Tuple.project schema witness x1, Tuple.project schema witness x2, s))
        blocks
    in
    let number side =
      List.fold_left
        (fun (next, m) key ->
          if Tmap.mem key m then (next, m) else (next + 1, Tmap.add key next m))
        (0, Tmap.empty) side
      |> snd
    in
    let v1 = number (List.map (fun (a1, _, _) -> a1) blocks) in
    let v2 = number (List.map (fun (_, a2, _) -> a2) blocks) in
    let n1 = Tmap.cardinal v1 and n2 = Tmap.cardinal v2 in
    let weights = Array.make_matrix n1 n2 0.0 in
    let repair_of = Hashtbl.create 16 in
    List.iter
      (fun (a1, a2, s) ->
        let i = Tmap.find a1 v1 and j = Tmap.find a2 v2 in
        weights.(i).(j) <- Table.total_weight s;
        Hashtbl.replace repair_of (i, j) s)
      blocks;
    let matched, _ = Repair_graph.Bipartite_matching.solve weights in
    Table.union_all schema (List.filter_map (Hashtbl.find_opt repair_of) matched)

  let combine schema step blocks =
    match step with
    | Simplify.Common_lhs _ -> Table.union_all schema (List.map snd blocks)
    | Consensus _ -> (
      match blocks with
      | [] -> Table.empty schema
      | (_, first) :: rest ->
        List.fold_left
          (fun best (_, s) ->
            if Table.total_weight s > Table.total_weight best then s else best)
          first rest)
    | Marriage (x1, x2) -> matching schema x1 x2 blocks

  let fold ~leaf ~combine ?(budget = Budget.unlimited ()) d tbl =
    let rec solve delta tbl =
      Budget.tick ~phase:"opt-s-repair" budget;
      let delta = Fd_set.remove_trivial delta in
      if Fd_set.is_empty delta then leaf tbl
      else if Table.is_empty tbl then (
        match Simplify.run delta with
        | Simplify.Hard stuck, _ -> raise (Stuck stuck)
        | Simplify.Tractable, _ -> leaf tbl)
      else
        match Simplify.step delta with
        | None -> raise (Stuck delta)
        | Some s ->
          let x = Simplify.partition s in
          let smaller = Fd_set.minus delta x in
          Table.group_by tbl x
          |> List.map (fun (_, sub) ->
                 (Table.View.tuple sub 0, solve smaller sub))
          |> combine (Table.schema tbl) s
    in
    solve d tbl

  let run ?budget d tbl =
    match fold ~leaf:Fun.id ~combine ?budget d tbl with
    | s -> Ok s
    | exception Stuck stuck -> Error stuck

  (* [Count]'s (optimal weight, number of optima) pairs over the same
     recursion; lhs marriages are refused before it runs. *)
  let count d tbl =
    let sat_mul a b =
      if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
    in
    let sat_add a b = if a > max_int - b then max_int else a + b in
    let combine _ step blocks =
      match step with
      | Simplify.Common_lhs _ ->
        List.fold_left
          (fun (w, c) (_, (w', c')) -> (w +. w', sat_mul c c'))
          (0.0, 1) blocks
      | Consensus _ ->
        let best =
          List.fold_left (fun acc (_, (w, _)) -> max acc w) 0.0 blocks
        in
        ( best,
          List.fold_left
            (fun acc (_, (w, c)) ->
              if w >= best -. 1e-9 then sat_add acc c else acc)
            0 blocks )
      | Marriage _ -> invalid_arg "Recursive_osr.count: lhs marriage"
    in
    fold ~leaf:(fun t -> (Table.total_weight t, 1)) ~combine d tbl
end

(* ---------- Proposition 4.9 by scanning ---------- *)

(* The Δ ≡ {A → B, B → A} rewrite as first written: for each tuple
   OptSRepair deletes, scan all of S* for the first survivor, in id
   order, that agrees with it on A (then take its B), else on B (then
   take its A). The oracle of Opt_u_repair's indexed rewrite. *)
let two_way_unary_scan d (a, b) tbl =
  let schema = Table.schema tbl in
  let s_star = Repair_srepair.Opt_s_repair.run_exn d tbl in
  Table.map_tuples tbl (fun i t ->
      if Table.mem s_star i then t
      else
        let va = Tuple.get_attr schema t a and vb = Tuple.get_attr schema t b in
        let partner_on attr v =
          Table.fold
            (fun _ s _ found ->
              match found with
              | Some _ -> found
              | None ->
                if Value.equal (Tuple.get_attr schema s attr) v then Some s
                else None)
            s_star None
        in
        match partner_on a va with
        | Some s -> Tuple.set_attr schema t b (Tuple.get_attr schema s b)
        | None -> (
          match partner_on b vb with
          | Some s -> Tuple.set_attr schema t a (Tuple.get_attr schema s a)
          | None -> assert false))

(* ---------- the U-repair passes by id ---------- *)

(* Every value occurring anywhere in the table, de-duplicated and
   sorted: the fresh floor of [Value.Supply.starting_above] before
   [Table.fresh_supply]. *)
let all_values tbl =
  Schema.attributes (Table.schema tbl)
  |> List.concat_map (Table.active_domain tbl)
  |> List.sort_uniq Value.compare

(* The Section 4 passes after S* as first written, kept as the oracle of
   [Opt_u_repair.solve], [U_approx.best], [Transform.update_of_subset]
   and [Table.dist_upd]: one map pass per consensus attribute, one
   [Table.mem] per row of Cor. 4.6 and Prop. 4.9, the fresh floor from
   [all_values], Theorem 4.1's composition by one id lookup and one
   tuple copy per copied cell, and distances by id. Sequential, without
   budgets. *)
module U_by_id = struct
  module Opt_u_repair = Repair_urepair.Opt_u_repair
  module Simplify = Repair_dichotomy.Simplify

  let dist_upd u tbl =
    Table.fold
      (fun i t w acc ->
        acc +. (w *. float_of_int (Tuple.hamming t (Table.tuple u i))))
      tbl 0.0

  let consensus_majority tbl attrs =
    let schema = Table.schema tbl in
    let majority_value a =
      let totals = Hashtbl.create 8 in
      Table.iter
        (fun _ t w ->
          let v = Tuple.get_attr schema t a in
          let prev = Option.value (Hashtbl.find_opt totals v) ~default:0.0 in
          Hashtbl.replace totals v (prev +. w))
        tbl;
      Hashtbl.fold
        (fun v w best ->
          match best with
          | Some (_, bw) when bw >= w -> best
          | _ -> Some (v, w))
        totals None
      |> Option.map fst
    in
    Attr_set.fold
      (fun a acc ->
        match majority_value a with
        | None -> acc
        | Some v ->
          Table.map_tuples acc (fun _ t -> Tuple.set_attr schema t a v))
      attrs tbl

  let update_of_subset ?cover d ~table s =
    let d = Fd_set.remove_trivial d in
    let cover =
      match cover with
      | Some c -> c
      | None ->
        if Fd_set.is_empty d then Attr_set.empty
        else Lhs_analysis.lhs_cover d
    in
    let schema = Table.schema table in
    let supply = Value.Supply.starting_above (all_values table) in
    Table.map_tuples table (fun i t ->
        if Table.mem s i then t
        else
          let fresh = Value.Supply.next supply in
          Attr_set.fold (fun a acc -> Tuple.set_attr schema acc a fresh) cover t)

  module Vtbl = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

  let via_two_way_unary d (a, b) tbl =
    let schema = Table.schema tbl in
    let s_star = Repair_srepair.Opt_s_repair.run_exn d tbl in
    let first_on attr =
      let index = Vtbl.create (max 16 (Table.size s_star)) in
      Table.iter
        (fun _ s _ ->
          let v = Tuple.get_attr schema s attr in
          if not (Vtbl.mem index v) then Vtbl.add index v s)
        s_star;
      index
    in
    let on_a = first_on a and on_b = first_on b in
    Table.map_tuples tbl (fun i t ->
        if Table.mem s_star i then t
        else
          match Vtbl.find_opt on_a (Tuple.get_attr schema t a) with
          | Some s -> Tuple.set_attr schema t b (Tuple.get_attr schema s b)
          | None -> (
            match Vtbl.find_opt on_b (Tuple.get_attr schema t b) with
            | Some s -> Tuple.set_attr schema t a (Tuple.get_attr schema s a)
            | None -> assert false))

  let compose schema base updates_with_attrs =
    List.fold_left
      (fun acc (attrs, u) ->
        Table.map_tuples acc (fun i t ->
            Attr_set.fold
              (fun a t' ->
                Tuple.set_attr schema t' a
                  (Tuple.get_attr schema (Table.tuple u i) a))
              attrs t))
      base updates_with_attrs

  let is_two_way_unary d =
    match Attr_set.elements (Fd_set.attrs d) with
    | [ a; b ] ->
      let cl x = Fd_set.closure_of d (Attr_set.singleton x) in
      if Attr_set.mem b (cl a) && Attr_set.mem a (cl b) then Some (a, b)
      else None
    | _ -> None

  (* Prop. 4.9, then Cor. 4.6; [None] for a refused component. *)
  let solve_component c tbl =
    match (is_two_way_unary c, Simplify.step c) with
    | Some ab, _ when Simplify.succeeds c -> Some (via_two_way_unary c ab tbl)
    | _, Some (Simplify.Common_lhs a) when Simplify.succeeds c ->
      let s_star = Repair_srepair.Opt_s_repair.run_exn c tbl in
      Some (update_of_subset ~cover:(Attr_set.singleton a) c ~table:tbl s_star)
    | _ -> None

  let solve d tbl =
    let consensus, components = Opt_u_repair.decompose d in
    let base = consensus_majority tbl consensus in
    let solved =
      List.map (fun c -> (Fd_set.attrs c, solve_component c tbl)) components
    in
    if List.exists (fun (_, u) -> u = None) solved then None
    else
      Some
        (compose (Table.schema tbl) base
           (List.map (fun (attrs, u) -> (attrs, Option.get u)) solved))

  let via_s_repair d tbl =
    let d = Fd_set.normalize d in
    if Fd_set.is_empty d then (tbl, 1.0)
    else
      let s = Repair_srepair.S_approx.approx2 d tbl in
      ( update_of_subset d ~table:tbl s,
        2.0 *. float_of_int (Lhs_analysis.mlc d) )

  let best d tbl =
    let consensus, components = Opt_u_repair.decompose d in
    let base = consensus_majority tbl consensus in
    let solve_component c =
      match solve c tbl with
      | Some u -> (u, 1.0)
      | None ->
        let certified, ratio = via_s_repair c tbl in
        let heuristic = Repair_urepair.U_heuristic.local_repair c tbl in
        let pick =
          if dist_upd heuristic tbl < dist_upd certified tbl then heuristic
          else certified
        in
        (pick, ratio)
    in
    let solved =
      List.map (fun c -> (Fd_set.attrs c, solve_component c)) components
    in
    let u =
      compose (Table.schema tbl) base
        (List.map (fun (attrs, (cu, _)) -> (attrs, cu)) solved)
    in
    (u, List.fold_left (fun acc (_, (_, r)) -> max acc r) 1.0 solved)
end
