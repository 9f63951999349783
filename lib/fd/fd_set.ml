open Repair_relational

type t = Fd.t list

let of_list fds =
  let rec dedup seen = function
    | [] -> []
    | fd :: rest ->
      if List.exists (Fd.equal fd) seen then dedup seen rest
      else fd :: dedup (fd :: seen) rest
  in
  dedup [] fds

let empty = []

let parse s =
  String.split_on_char ';' s
  |> List.map String.trim
  |> List.filter (fun part -> part <> "")
  |> List.map Fd.parse
  |> of_list

let to_list d = d
let add fd d = of_list (d @ [ fd ])
let union d1 d2 = of_list (d1 @ d2)
let size = List.length
let is_empty d = d = []
let mem fd d = List.exists (Fd.equal fd) d
let filter = List.filter
let map f d = of_list (List.map f d)

let equal_syntactic d1 d2 =
  List.length d1 = List.length d2
  && List.for_all (fun fd -> mem fd d2) d1
  && List.for_all (fun fd -> mem fd d1) d2

let attrs d =
  List.fold_left (fun acc fd -> Attr_set.union acc (Fd.attrs fd)) Attr_set.empty d

let closure_of d x =
  (* Standard fixpoint computation of cl_Δ(X). *)
  let rec loop acc =
    let acc' =
      List.fold_left
        (fun acc fd ->
          if Attr_set.subset (Fd.lhs fd) acc then Attr_set.union acc (Fd.rhs fd)
          else acc)
        acc d
    in
    if Attr_set.equal acc acc' then acc else loop acc'
  in
  loop x

let entails d fd = Attr_set.subset (Fd.rhs fd) (closure_of d (Fd.lhs fd))

let equivalent d1 d2 =
  List.for_all (entails d1) d2 && List.for_all (entails d2) d1

let consensus_attrs d = closure_of d Attr_set.empty
let is_consensus_free d = Attr_set.is_empty (consensus_attrs d)
let is_trivial d = List.for_all Fd.is_trivial d
let remove_trivial d = List.filter (fun fd -> not (Fd.is_trivial fd)) d

let normalize d =
  of_list (List.concat_map Fd.split d) |> remove_trivial

let minus d x = of_list (List.map (fun fd -> Fd.minus fd x) d)

let common_lhs d =
  match d with
  | [] -> None
  | fd :: rest ->
    let shared =
      List.fold_left (fun acc fd' -> Attr_set.inter acc (Fd.lhs fd'))
        (Fd.lhs fd) rest
    in
    Attr_set.choose_opt shared

let consensus_fd d =
  List.find_opt
    (fun fd -> Fd.is_consensus fd && not (Attr_set.is_empty (Fd.rhs fd)))
    d

let lhss d =
  List.map Fd.lhs d
  |> List.sort_uniq Attr_set.compare

let lhs_marriage d =
  let sides = lhss d in
  let covers x1 x2 =
    List.for_all
      (fun fd ->
        Attr_set.subset x1 (Fd.lhs fd) || Attr_set.subset x2 (Fd.lhs fd))
      d
  in
  let rec pairs = function
    | [] -> None
    | x1 :: rest -> (
      let hit =
        List.find_opt
          (fun x2 ->
            Attr_set.equal (closure_of d x1) (closure_of d x2) && covers x1 x2)
          rest
      in
      match hit with Some x2 -> Some (x1, x2) | None -> pairs rest)
  in
  pairs sides

let is_chain d =
  let sides = lhss d in
  List.for_all
    (fun x1 ->
      List.for_all
        (fun x2 -> Attr_set.subset x1 x2 || Attr_set.subset x2 x1)
        sides)
    sides

let local_minima d =
  let sides = lhss d in
  List.filter
    (fun x -> not (List.exists (fun z -> Attr_set.strict_subset z x) sides))
    sides

let is_unary d = List.for_all Fd.is_unary d

let components d =
  (* Union-find-free small-scale merge: grow components greedily. *)
  let joins fd comp_attrs = not (Attr_set.disjoint (Fd.attrs fd) comp_attrs) in
  let place (comps : (Attr_set.t * Fd.t list) list) fd =
    let touching, apart =
      List.partition (fun (attrs, _) -> joins fd attrs) comps
    in
    let merged_attrs =
      List.fold_left
        (fun acc (attrs, _) -> Attr_set.union acc attrs)
        (Fd.attrs fd) touching
    in
    let merged_fds = fd :: List.concat_map snd touching in
    (merged_attrs, merged_fds) :: apart
  in
  List.fold_left place [] d
  |> List.rev_map (fun (_, fds) -> of_list (List.rev fds))

let pair_consistent d schema t1 t2 =
  List.for_all (Fd.holds_on schema t1 t2) d

(* A pair violates X → Y iff it shares an X-group and falls into two
   different Y-subgroups of it. So per FD: partition the visible
   positions on X, split each group of two or more on Y, and cross the
   subgroups; a group that agrees on Y splits into one subgroup and
   yields nothing. Positions follow id order, so sorting the
   (position, position, FD index) triples restores the all-pairs order. *)
let violations d tbl =
  let n = Table.View.length tbl in
  if n < 2 then []
  else begin
    let all = Array.init n Fun.id in
    let found = ref [] in
    List.iteri
      (fun f fd ->
        List.iter
          (fun group ->
            if Array.length group > 1 then begin
              let rec cross = function
                | [] -> ()
                | g1 :: rest ->
                  List.iter
                    (fun g2 ->
                      Array.iter
                        (fun p ->
                          Array.iter
                            (fun q -> found := (min p q, max p q, f) :: !found)
                            g2)
                        g1)
                    rest;
                  cross rest
              in
              cross (Table.View.group_within tbl group (Fd.rhs fd))
            end)
          (Table.View.group_within tbl all (Fd.lhs fd)))
      d;
    let by_pair (p1, q1, f1) (p2, q2, f2) =
      if p1 <> p2 then Int.compare p1 p2
      else if q1 <> q2 then Int.compare q1 q2
      else Int.compare f1 f2
    in
    let fds = Array.of_list d in
    List.sort by_pair !found
    |> List.map (fun (p, q, f) ->
           (Table.View.id tbl p, Table.View.id tbl q, fds.(f)))
  end

(* Satisfaction is checked FD by FD, grouping on the lhs projection: a
   table satisfies X → Y iff within every lhs group all rhs projections are
   equal. This is O(|T| log |T|) per FD rather than O(|T|²). *)
let satisfied_by d tbl =
  let schema = Table.schema tbl in
  let fd_ok fd =
    let groups = Table.group_by tbl (Fd.lhs fd) in
    List.for_all
      (fun (_, sub) ->
        match Table.tuples sub with
        | [] -> true
        | first :: rest ->
          let key = Tuple.project schema first (Fd.rhs fd) in
          List.for_all
            (fun t -> Tuple.equal (Tuple.project schema t (Fd.rhs fd)) key)
            rest)
      groups
  in
  List.for_all fd_ok d

let pp ppf d =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Fd.pp) d

let to_string d = Fmt.str "%a" pp d
