open Repair_relational
open Repair_fd

type source = From_a_c_b | From_a_b_c | From_triangle | From_ab_c_b

type certificate = {
  cls : int;
  x1 : Attr_set.t;
  x2 : Attr_set.t;
  x3 : Attr_set.t option;
  source : source;
}

let source_name = function
  | From_a_c_b -> "Δ_A→C←B"
  | From_a_b_c -> "Δ_A→B→C"
  | From_triangle -> "Δ_AB↔AC↔BC"
  | From_ab_c_b -> "Δ_AB→C→B"

let hat d x = Attr_set.diff (Fd_set.closure_of d x) x

(* The ordered-pair tests of Lemma A.22; [test_pair] returns the class and
   source when the pair (x1, x2) matches one of the five patterns. *)
let test_pair d x1 x2 =
  let x1h = hat d x1 and x2h = hat d x2 in
  let cl2 = Fd_set.closure_of d x2 in
  if Attr_set.disjoint x2h x1 then
    if Attr_set.disjoint x1h cl2 then Some (1, From_a_c_b, None)
    else if
      (not (Attr_set.disjoint x1h x2h)) && Attr_set.disjoint x1h x2
    then Some (2, From_a_b_c, None)
    else if not (Attr_set.disjoint x1h x2) then Some (3, From_a_b_c, None)
    else None
  else if not (Attr_set.disjoint x1h x2) then
    if not (Attr_set.subset (Attr_set.diff x2 x1) x1h) then
      Some (5, From_ab_c_b, None)
    else if
      Attr_set.subset (Attr_set.diff x1 x2) x2h
      && Attr_set.subset (Attr_set.diff x2 x1) x1h
    then Some (4, From_triangle, None)
    else None
  else None

let certify d =
  let d = Fd_set.remove_trivial d in
  if Fd_set.is_empty d then invalid_arg "Classify.certify: trivial FD set";
  if Simplify.step d <> None then
    invalid_arg "Classify.certify: a simplification still applies";
  let minima = Fd_set.local_minima d in
  let ordered_pairs =
    List.concat_map
      (fun x1 ->
        List.filter_map
          (fun x2 ->
            if Attr_set.equal x1 x2 then None else Some (x1, x2))
          minima)
      minima
  in
  let matched =
    List.filter_map
      (fun (x1, x2) ->
        Option.map (fun (cls, src, _) -> (cls, src, x1, x2)) (test_pair d x1 x2))
      ordered_pairs
  in
  (* Prefer the lowest class number for a deterministic, most-specific
     certificate. *)
  match List.sort (fun (a, _, _, _) (b, _, _, _) -> Stdlib.compare a b) matched with
  | [] ->
    invalid_arg
      (Fmt.str "Classify.certify: no class matched %a (unexpected)" Fd_set.pp d)
  | (cls, source, x1, x2) :: _ ->
    let x3 =
      if cls = 4 then
        List.find_opt
          (fun z -> not (Attr_set.equal z x1) && not (Attr_set.equal z x2))
          minima
      else None
    in
    if cls = 4 && x3 = None then
      invalid_arg "Classify.certify: class 4 without a third local minimum";
    { cls; x1; x2; x3; source }

let classify d =
  match Simplify.run d with
  | Simplify.Tractable, trace -> `Tractable trace
  | Simplify.Hard stuck, trace -> `Hard (stuck, trace, certify stuck)

let pp_certificate ppf c =
  Fmt.pf ppf "class %d (X1=%a, X2=%a%a) — fact-wise reduction from %s" c.cls
    Attr_set.pp c.x1 Attr_set.pp c.x2
    (fun ppf -> function
      | None -> ()
      | Some x3 -> Fmt.pf ppf ", X3=%a" Attr_set.pp x3)
    c.x3 (source_name c.source)
