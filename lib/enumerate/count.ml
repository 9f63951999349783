open Repair_relational
open Repair_fd
module Simplify = Repair_dichotomy.Simplify

(* Counts explode combinatorially; saturate at max_int rather than silently
   overflowing. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let sat_add a b = if a > max_int - b then max_int else a + b

(* The Δ the chain applies its first lhs marriage to, else the stuck set:
   every branch of the recursion follows the same chain, so refusing
   here refuses exactly the Δs the recursion would, on any table. *)
let refusal d =
  let outcome, trace = Simplify.run d in
  let rec first_marriage before = function
    | (Simplify.Marriage _, _) :: _ -> Some before
    | (_, after) :: rest -> first_marriage after rest
    | [] -> (
      match outcome with Simplify.Hard stuck -> Some stuck | Tractable -> None)
  in
  first_marriage (Fd_set.remove_trivial d) trace

(* OptSRepair's fold, carrying (optimal weight, number of optima) per
   block. *)
let leaf tbl = (Table.total_weight tbl, 1)

let combine _ step blocks =
  match step with
  | Simplify.Common_lhs _ ->
    (* Groups are independent: weights add, counts multiply. *)
    List.fold_left
      (fun (w, c) (_, (w', c')) -> (w +. w', sat_mul c c'))
      (0.0, 1) blocks
  | Consensus _ ->
    (* Exactly one block survives: the counts of all maximum-weight
       blocks add up. *)
    let best = List.fold_left (fun acc (_, (w, _)) -> max acc w) 0.0 blocks in
    let count =
      List.fold_left
        (fun acc (_, (w, c)) ->
          if w >= best -. 1e-9 then sat_add acc c else acc)
        0 blocks
    in
    (best, count)
  | Marriage _ -> invalid_arg "Count: lhs marriage (refused up front)"

let optimal_weight_and_count d tbl =
  match refusal d with
  | Some stuck -> Error stuck
  | None -> Ok (Repair_srepair.Opt_s_repair.fold ~leaf ~combine d tbl)

let optimal_s_repairs d tbl = Result.map snd (optimal_weight_and_count d tbl)

let optimal_s_repairs_exn d tbl =
  match optimal_s_repairs d tbl with
  | Ok c -> c
  | Error stuck ->
    failwith
      (Fmt.str
         "Count.optimal_s_repairs: %a needs an lhs marriage (counting \
          maximum matchings is #P-hard)"
         Fd_set.pp stuck)
