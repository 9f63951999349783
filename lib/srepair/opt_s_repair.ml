open Repair_relational
open Repair_fd
open Repair_runtime
module Metrics = Repair_obs.Metrics
module Simplify = Repair_dichotomy.Simplify

exception Stuck of Fd_set.t

let method_name = "OptSRepair (Algorithm 1)"

let span_name = function
  | Simplify.Common_lhs _ -> "common-lhs"
  | Consensus _ -> "consensus"
  | Marriage _ -> "marriage"

(* Lhs marriage (X1, X2): within the consistent result, the X1-value of
   a tuple determines its X2-value and vice versa (their closures
   coincide), so the kept (a1, a2) combinations form a matching between
   the X1- and X2-projections; keep the maximum-weight one. *)
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

(* Common lhs: blocks never interact, because a violation within the
   result would have to agree on the shared attribute. Consensus ∅ → X:
   every consistent subset lies within a single X-block, so the heaviest
   block repair wins (the first one on ties). *)
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

(* The blocks are solved through [Table.fold_budgeted]: at the top level
   a wide [runner] solves them as independent tasks, and every block's
   own recursion runs on [Table.seq_runner] — the recursion fans out
   once, at the first simplification. An empty table still fails on a
   hard Δ: success depends on Δ only (Theorem 3.4). *)
let fold ~leaf ~combine ?(budget = Budget.unlimited ())
    ?(runner = Table.seq_runner) d tbl =
  let rec solve runner budget delta tbl =
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
        Metrics.with_span (span_name s) (fun () ->
            let x = Simplify.partition s in
            let smaller = Fd_set.minus delta x in
            Table.group_by ~runner tbl x
            |> Table.fold_budgeted runner budget
                 (fun b (_, sub) ->
                   ( Table.View.tuple sub 0,
                     solve Table.seq_runner b smaller sub ))
                 (fun blocks block -> block :: blocks)
                 []
            |> List.rev
            |> combine (Table.schema tbl) s)
  in
  solve runner budget d tbl

let solve_block ?budget d tbl = fold ~leaf:Fun.id ~combine ?budget d tbl

let run ?budget ?runner d tbl =
  match
    Metrics.with_span "opt-s-repair" (fun () ->
        fold ~leaf:Fun.id ~combine ?budget ?runner d tbl)
  with
  | s -> Ok s
  | exception Stuck stuck -> Error stuck

let run_exn ?budget d tbl =
  match run ?budget d tbl with
  | Ok s -> s
  | Error stuck ->
    failwith
      (Fmt.str "OptSRepair failed: no simplification applies to %a" Fd_set.pp
         stuck)

let distance ?budget d tbl =
  Result.map (fun s -> Table.dist_sub s tbl) (run ?budget d tbl)
