open Repair_relational

(* Minimum hitting set of a family of attribute sets, by depth-first search
   branching on the attributes of a smallest unhit set. The families here
   (FD left-hand sides, minimal implicants) are tiny under data complexity,
   so exhaustive search with a best-so-far bound is appropriate. *)
let min_hitting_set (family : Attr_set.t list) : Attr_set.t =
  let best = ref None in
  let best_size () =
    match !best with None -> max_int | Some b -> Attr_set.cardinal b
  in
  let rec go chosen remaining =
    if Attr_set.cardinal chosen >= best_size () then ()
    else
      match
        List.filter (fun x -> Attr_set.disjoint x chosen) remaining
        |> List.sort (fun x y ->
               Stdlib.compare (Attr_set.cardinal x) (Attr_set.cardinal y))
      with
      | [] -> best := Some chosen
      | unhit :: _ as left ->
        Attr_set.iter (fun a -> go (Attr_set.add a chosen) left) unhit
  in
  go Attr_set.empty family;
  match !best with
  | Some b -> b
  | None ->
    (* Only possible when some set in the family is empty. *)
    invalid_arg "min_hitting_set: family contains the empty set"

let lhs_cover d =
  let fds = Fd_set.remove_trivial d in
  if Fd_set.is_empty fds then
    invalid_arg "Lhs_analysis.lhs_cover: trivial FD set";
  let sides = List.map Fd.lhs (Fd_set.to_list fds) in
  if List.exists Attr_set.is_empty sides then
    invalid_arg "Lhs_analysis.lhs_cover: consensus FD has no lhs cover";
  min_hitting_set sides

let mlc d = Attr_set.cardinal (lhs_cover d)

let mfs d =
  Fd_set.normalize d |> Fd_set.to_list
  |> List.fold_left (fun acc fd -> max acc (Attr_set.cardinal (Fd.lhs fd))) 0

let implicants d a =
  let universe = Attr_set.remove a (Fd_set.attrs d) in
  let is_implicant x = Attr_set.mem a (Fd_set.closure_of d x) in
  let by_size =
    Attr_set.subsets universe
    |> List.sort (fun x y ->
           Stdlib.compare (Attr_set.cardinal x) (Attr_set.cardinal y))
  in
  List.fold_left
    (fun minimal x ->
      if
        is_implicant x
        && not (List.exists (fun m -> Attr_set.subset m x) minimal)
      then x :: minimal
      else minimal)
    [] by_size
  |> List.rev

(* A set C is a core implicant of a iff the complement D of C (within
   attr(Δ) ∖ {a}) derives nothing about a: a ∉ cl_Δ(D). So a minimum core
   implicant corresponds to a maximum D with a ∉ cl_Δ(D); we search for it
   directly, pruning on the monotonicity of the closure. *)
let min_core_implicant d a =
  let universe = Attr_set.elements (Attr_set.remove a (Fd_set.attrs d)) in
  let safe x = not (Attr_set.mem a (Fd_set.closure_of d x)) in
  let best = ref Attr_set.empty in
  (* [go kept pending i] explores choices for universe.(i..); [kept] is the
     current D, [pending] the attributes not yet decided. *)
  let rec go kept pending =
    if Attr_set.cardinal kept + List.length pending <= Attr_set.cardinal !best
    then ()
    else
      match pending with
      | [] -> if Attr_set.cardinal kept > Attr_set.cardinal !best then best := kept
      | attr :: rest ->
        let with_attr = Attr_set.add attr kept in
        if safe with_attr then go with_attr rest;
        go kept rest
  in
  if not (safe Attr_set.empty) then
    (* a is a consensus attribute: even the empty D derives a, so every
       implicant includes the empty set and no core implicant exists; the
       hitting set of a family containing ∅ is undefined. We return the
       whole universe as a conservative answer only when it works. *)
    invalid_arg "Lhs_analysis.min_core_implicant: consensus attribute"
  else begin
    go Attr_set.empty universe;
    let d_max = !best in
    Attr_set.diff (Attr_set.of_list universe) d_max
  end

let mci d =
  let d = Fd_set.normalize d in
  if Fd_set.is_empty d then 0
  else
    Fd_set.attrs d |> Attr_set.elements
    |> List.filter (fun a ->
           not (Attr_set.mem a (Fd_set.consensus_attrs d)))
    |> List.fold_left
         (fun acc a -> max acc (Attr_set.cardinal (min_core_implicant d a)))
         0

let kl_ratio d =
  let d = Fd_set.normalize d in
  if Fd_set.is_empty d then 1 else (mci d + 2) * ((2 * mfs d) - 1)
