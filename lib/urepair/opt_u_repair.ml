open Repair_relational
open Repair_fd
open Repair_runtime
module Simplify = Repair_dichotomy.Simplify

type hardness = Known_apx_hard of string | Open_complexity

type failure = { component : Fd_set.t; hardness : hardness }

exception Refuse of failure

(* Proposition B.2 / Corollary B.3: per consensus attribute, keep the
   weighted-majority value and overwrite the rest. *)
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
      | None -> acc (* empty table *)
      | Some v -> Table.map_tuples acc (fun _ t -> Tuple.set_attr schema t a v))
    attrs tbl

(* Corollary 4.6 (positive side): common lhs [a] + OSRSucceeds. *)
let via_common_lhs ?budget d a tbl =
  let s_star = Repair_srepair.Opt_s_repair.run_exn ?budget d tbl in
  Transform.update_of_subset ~cover:(Attr_set.singleton a) d ~table:tbl s_star

(* Proposition 4.9: Δ ≡ {A → B, B → A}. Rewrite each deleted tuple into a
   surviving tuple it agrees with on A or on B. *)
let via_two_way_unary ?budget d (a, b) tbl =
  let schema = Table.schema tbl in
  let s_star = Repair_srepair.Opt_s_repair.run_exn ?budget d tbl in
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
          | None ->
            (* Impossible: t conflicts with no survivor, contradicting the
               optimality (hence maximality) of S*. *)
            assert false))

let is_two_way_unary d =
  let attrs = Attr_set.elements (Fd_set.attrs d) in
  match attrs with
  | [ a; b ] ->
    let cl_a = Fd_set.closure_of d (Attr_set.singleton a) in
    let cl_b = Fd_set.closure_of d (Attr_set.singleton b) in
    if Attr_set.mem b cl_a && Attr_set.mem a cl_b then Some (a, b) else None
  | _ -> None

(* Diagnosis of a refused component whose first simplification is
   [step], naming the applicable hardness result when we know one. *)
let diagnose_component c step =
  match step with
  | Some (Simplify.Common_lhs _) ->
    (* Corollary 4.6 makes U-repairing inter-reducible with S-repairing;
       OSRSucceeds failed (else we'd have solved it), so Theorem 3.4 gives
       APX-completeness. *)
    Known_apx_hard "Corollary 4.6 + Theorem 3.4 (common lhs, OSRSucceeds fails)"
  | _ ->
    let norm = Fd_set.normalize c in
    let fds = Fd_set.to_list norm in
    let is_chain_of_two =
      match fds with
      | [ f1; f2 ] -> (
        let unary fd = Attr_set.cardinal (Fd.lhs fd) = 1 in
        unary f1 && unary f2
        &&
        let chain fa fb =
          (* fa = X → Y, fb = Y → Z with X, Y, Z distinct singletons. *)
          match
            ( Attr_set.elements (Fd.lhs fa),
              Attr_set.elements (Fd.rhs fa),
              Attr_set.elements (Fd.lhs fb),
              Attr_set.elements (Fd.rhs fb) )
          with
          | [ x ], [ y ], [ y' ], [ z ] ->
            y = y' && x <> z && x <> y && y <> z
          | _ -> false
        in
        chain f1 f2 || chain f2 f1)
      | _ -> false
    in
    if is_chain_of_two then
      Known_apx_hard "Kolahi–Lakshmanan (Example 4.2): {A → B, B → C}"
    else
      let attrs = Attr_set.elements (Fd_set.attrs c) in
      let matches_a_b_to_c () =
        (* Δ_{A↔B→C} up to renaming: two equivalent attributes determining
           a third. *)
        List.length attrs = 3
        && List.exists
             (fun a ->
               List.exists
                 (fun b ->
                   a <> b
                   &&
                   let template =
                     Fd_set.of_list
                       [ Fd.make (Attr_set.singleton a) (Attr_set.singleton b);
                         Fd.make (Attr_set.singleton b) (Attr_set.singleton a);
                         Fd.make (Attr_set.singleton b)
                           (Attr_set.of_list
                              (List.filter (fun x -> x <> a && x <> b) attrs))
                       ]
                   in
                   Fd_set.equivalent c template)
                 attrs)
             attrs
      in
      if matches_a_b_to_c () then
        Known_apx_hard "Theorem 4.10: Δ_{A↔B→C}"
      else Open_complexity

(* How to solve one nontrivial component, decided from Δ alone: Prop.
   4.9 first, then Cor. 4.6; otherwise the refusal with its diagnosis. *)
let plan c =
  let step = Simplify.step c in
  match (is_two_way_unary c, step) with
  | Some ab, _ when Simplify.succeeds c -> Ok (`Two_way_unary ab)
  | _, Some (Simplify.Common_lhs a) when Simplify.succeeds c ->
    Ok (`Common_lhs a)
  | _ -> Error { component = c; hardness = diagnose_component c step }

let solve_component ~budget c tbl =
  Budget.tick ~phase:"opt-u-repair" budget;
  match plan c with
  | Ok (`Two_way_unary ab) -> via_two_way_unary ~budget c ab tbl
  | Ok (`Common_lhs a) -> via_common_lhs ~budget c a tbl
  | Error f -> raise (Refuse f)

(* Theorem 4.3, then Theorem 4.1: the consensus attributes cl(∅) of the
   normalized Δ, and the nontrivial attribute-disjoint components of what
   is left once they are removed. *)
let decompose d =
  let d = Fd_set.normalize d in
  let consensus = Fd_set.consensus_attrs d in
  let rest = Fd_set.remove_trivial (Fd_set.minus d consensus) in
  ( consensus,
    List.filter (fun c -> not (Fd_set.is_trivial c)) (Fd_set.components rest) )

(* Compose component solutions: each solution only modifies attributes
   inside its component, so copying those attribute values into the base
   update is Theorem 4.1's composition. *)
let compose schema base updates_with_attrs =
  List.fold_left
    (fun acc (attrs, u) ->
      Table.map_tuples acc (fun i t ->
          Attr_set.fold
            (fun a t' ->
              Tuple.set_attr schema t' a (Tuple.get_attr schema (Table.tuple u i) a))
            attrs t))
    base updates_with_attrs

let diagnose d =
  List.find_map
    (fun c -> match plan c with Ok _ -> None | Error f -> Some f)
    (snd (decompose d))

(* Theorem 4.1's components touch disjoint attribute sets, so a wide
   [runner] solves them as independent tasks ([Table.fold_budgeted]) and
   composes them exactly as the inline pass does. One extra rule: a Δ
   with a refused component runs inline. Refusal depends on Δ only, and
   keeping it inline keeps the Error path — the first refused component,
   no work on later ones — byte-identical. [diagnose] runs only for
   wide runners, so the 1-domain path does no extra work. *)
let solve ?(budget = Budget.unlimited ()) ?(runner = Table.seq_runner) d tbl =
  let runner =
    if runner.Table.width > 1 && diagnose d <> None then Table.seq_runner
    else runner
  in
  let consensus, components = decompose d in
  let base = consensus_majority tbl consensus in
  try
    components
    |> Table.fold_budgeted runner budget
         (fun b c -> (Fd_set.attrs c, solve_component ~budget:b c tbl))
         (fun updates u -> u :: updates)
         []
    |> List.rev
    |> compose (Table.schema tbl) base
    |> Result.ok
  with Refuse f -> Error f

let solve_exn ?budget d tbl =
  match solve ?budget d tbl with
  | Ok u -> u
  | Error f ->
    failwith
      (Fmt.str "Opt_u_repair: component %a is not known tractable" Fd_set.pp
         f.component)

let distance ?budget d tbl =
  Result.map (fun u -> Table.dist_upd u tbl) (solve ?budget d tbl)

let tractable d = diagnose d = None

let pp_failure ppf f =
  Fmt.pf ppf "component %a: %s" Fd_set.pp f.component
    (match f.hardness with
    | Known_apx_hard why -> "APX-hard — " ^ why
    | Open_complexity -> "complexity open (paper Section 4)")
