open Repair_relational
open Repair_fd
open Repair_runtime
module Metrics = Repair_obs.Metrics

exception Stuck of Fd_set.t

(* The matching tail of subroutine 3: given each (X1∪X2)-block's
   projections and its solved repair, keep the maximum-weight matching
   between X1- and X2-values. *)
let marriage_matching schema blocks =
  let module Tmap = Map.Make (struct
    type t = Tuple.t

    let compare = Tuple.compare
  end) in
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
  let matching, _ = Repair_graph.Bipartite_matching.solve weights in
  List.fold_left
    (fun acc (i, j) ->
      match Hashtbl.find_opt repair_of (i, j) with
      | Some s -> Table.union acc s
      | None -> acc)
    (Table.empty schema) matching

(* Each subroutine solves its blocks through [Table.fold_budgeted]: at
   the top level a wide [runner] solves them as independent tasks, and
   every block's own recursion runs on [Table.seq_runner] — the
   recursion fans out once, at the first simplification. *)

(* Subroutine 1: all FDs share lhs attribute a. Partition on a and solve
   independently under Δ − a; blocks never interact because any violation
   within the result would have to agree on a. *)
let rec common_lhs_rep runner budget delta a tbl =
  let smaller = Fd_set.minus delta (Attr_set.singleton a) in
  Table.group_by ~runner tbl (Attr_set.singleton a)
  |> Table.fold_budgeted runner budget
       (fun b (_, sub) -> solve Table.seq_runner b smaller sub)
       Table.union
       (Table.empty (Table.schema tbl))

(* Subroutine 2: consensus FD ∅ → X. Every consistent subset lies within a
   single X-block, so solve each block under Δ − X and keep the heaviest
   optimal block repair (the first one on ties). *)
and consensus_rep runner budget delta fd tbl =
  let x = Fd.rhs fd in
  let smaller = Fd_set.minus delta x in
  let heavier best s =
    match best with
    | Some b when Table.total_weight s <= Table.total_weight b -> best
    | _ -> Some s
  in
  Table.group_by ~runner tbl x
  |> Table.fold_budgeted runner budget
       (fun b (_, sub) -> solve Table.seq_runner b smaller sub)
       heavier None
  |> Option.value ~default:tbl (* empty table: already consistent *)

(* Subroutine 3: lhs marriage (X1, X2). Within the consistent result, the
   X1-value of a tuple determines its X2-value and vice versa (their
   closures coincide), so the kept (a1, a2) combinations form a matching
   between the X1- and X2-projections; maximize its weight. *)
and marriage_rep runner budget delta (x1, x2) tbl =
  let x12 = Attr_set.union x1 x2 in
  let smaller = Fd_set.minus delta x12 in
  let schema = Table.schema tbl in
  Table.group_by ~runner tbl x12
  |> Table.fold_budgeted runner budget
       (fun b (_, sub) ->
         (* Recover the X1/X2 projections of the block from any member. *)
         let witness = List.hd (Table.tuples sub) in
         let a1 = Tuple.project schema witness x1 in
         let a2 = Tuple.project schema witness x2 in
         (a1, a2, solve Table.seq_runner b smaller sub))
       (fun blocks block -> block :: blocks)
       []
  |> List.rev
  |> marriage_matching schema

(* Success must depend on Δ only (Theorem 3.4): when a recursion branch
   runs out of tuples, we still simulate the simplification chain so that a
   hard Δ fails regardless of the data. *)
and check_delta_only delta =
  let delta = Fd_set.remove_trivial delta in
  if Fd_set.is_empty delta then ()
  else
    match Fd_set.common_lhs delta with
    | Some a -> check_delta_only (Fd_set.minus delta (Attr_set.singleton a))
    | None -> (
      match Fd_set.consensus_fd delta with
      | Some fd -> check_delta_only (Fd_set.minus delta (Fd.rhs fd))
      | None -> (
        match Fd_set.lhs_marriage delta with
        | Some (x1, x2) ->
          check_delta_only (Fd_set.minus delta (Attr_set.union x1 x2))
        | None -> raise (Stuck delta)))

and solve runner budget delta tbl =
  Budget.tick ~phase:"opt-s-repair" budget;
  let delta = Fd_set.remove_trivial delta in
  if Fd_set.is_empty delta then tbl
  else if Table.is_empty tbl then begin
    check_delta_only delta;
    tbl
  end
  else
    match Fd_set.common_lhs delta with
    | Some a ->
      Metrics.with_span "common-lhs" (fun () ->
          common_lhs_rep runner budget delta a tbl)
    | None -> (
      match Fd_set.consensus_fd delta with
      | Some fd ->
        Metrics.with_span "consensus" (fun () ->
            consensus_rep runner budget delta fd tbl)
      | None -> (
        match Fd_set.lhs_marriage delta with
        | Some marriage ->
          Metrics.with_span "marriage" (fun () ->
              marriage_rep runner budget delta marriage tbl)
        | None -> raise (Stuck delta)))

(* Streaming entry points (DESIGN §16): the per-block solve and the
   marriage tail, exposed so an incremental maintainer can re-run exactly
   the computation a batch [run] performs on one block and combine cached
   block repairs the way the batch top level would. *)
let solve_block ?(budget = Budget.unlimited ()) d tbl =
  solve Table.seq_runner budget d tbl

let marriage_combine = marriage_matching

let run ?(budget = Budget.unlimited ()) ?(runner = Table.seq_runner) d tbl =
  match
    Metrics.with_span "opt-s-repair" (fun () -> solve runner budget d tbl)
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
