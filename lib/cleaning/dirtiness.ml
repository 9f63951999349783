open Repair_relational
open Repair_fd

type estimate = {
  conflicts : int;
  deletions_lower : float;
  deletions_upper : float;
  deletions_exact : bool;
  updates_lower : float;
  updates_upper : float;
  updates_exact : bool;
}

let estimate d tbl =
  (* [violations] lists a pair once per FD it violates; count pairs. *)
  let conflicts =
    Fd_set.violations d tbl
    |> List.map (fun (i, j, _) -> (i, j))
    |> List.sort_uniq compare
    |> List.length
  in
  let deletions_lower, deletions_upper, deletions_exact =
    match Repair_srepair.Opt_s_repair.distance d tbl with
    | Ok dist -> (dist, dist, true)
    | Error _ ->
      let apx = Repair_srepair.S_approx.distance d tbl in
      (apx /. 2.0, apx, false)
  in
  let updates_lower, updates_upper, updates_exact =
    match Repair_urepair.Opt_u_repair.distance d tbl with
    | Ok dist -> (dist, dist, true)
    | Error _ ->
      let u, ratio = Repair_urepair.U_approx.best d tbl in
      let achieved = Table.dist_upd u tbl in
      (* Two lower bounds: the certified ratio, and Corollary 4.5 via the
         S-repair lower bound. *)
      (max (achieved /. ratio) deletions_lower, achieved, false)
  in
  {
    conflicts;
    deletions_lower;
    deletions_upper;
    deletions_exact;
    updates_lower;
    updates_upper;
    updates_exact;
  }

let fraction_dirty e tbl =
  let total = Table.total_weight tbl in
  if total = 0.0 then 0.0 else e.deletions_upper /. total

let pp_bound ppf (lo, hi, exact) =
  if exact then Fmt.pf ppf "%g (exact)" hi else Fmt.pf ppf "[%g, %g]" lo hi

let pp ppf e =
  Fmt.pf ppf
    "@[<v>conflicting pairs : %d@,optimal deletions : %a@,optimal updates   \
     : %a@]"
    e.conflicts pp_bound
    (e.deletions_lower, e.deletions_upper, e.deletions_exact)
    pp_bound
    (e.updates_lower, e.updates_upper, e.updates_exact)
