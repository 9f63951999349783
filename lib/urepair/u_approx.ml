open Repair_relational
open Repair_fd

let via_s_repair d tbl =
  let d = Fd_set.normalize d in
  if Fd_set.is_empty d then (tbl, 1.0)
  else begin
    if not (Fd_set.is_consensus_free d) then
      invalid_arg "U_approx.via_s_repair: consensus attributes present";
    let s = Repair_srepair.S_approx.approx2 d tbl in
    let u = Transform.update_of_subset d ~table:tbl s in
    (u, 2.0 *. float_of_int (Lhs_analysis.mlc d))
  end

let best d tbl =
  let consensus, components = Opt_u_repair.decompose d in
  (* Theorem 4.3: the consensus part is solved exactly (ratio 1). *)
  let base = (consensus, Opt_u_repair.consensus_majority tbl consensus) in
  let solve_component c =
    match Opt_u_repair.solve c tbl with
    | Ok u -> (u, 1.0)
    | Error _ ->
      (* Certified algorithm (Theorem 4.12) and the voting heuristic run
         side by side; keep the cheaper update under the certified ratio —
         the paper's "combine the two and take the best" remark. *)
      let certified, ratio = via_s_repair c tbl in
      let heuristic = U_heuristic.local_repair c tbl in
      let pick =
        if Table.dist_upd heuristic tbl < Table.dist_upd certified tbl then
          heuristic
        else certified
      in
      (pick, ratio)
  in
  let solved =
    List.map (fun c -> (Fd_set.attrs c, solve_component c)) components
  in
  let u =
    Opt_u_repair.compose tbl
      (base :: List.map (fun (attrs, (cu, _)) -> (attrs, cu)) solved)
  in
  (u, List.fold_left (fun acc (_, (_, r)) -> max acc r) 1.0 solved)

let certified_ratio d =
  List.fold_left
    (fun acc c ->
      let r =
        if Opt_u_repair.tractable c then 1.0
        else 2.0 *. float_of_int (Lhs_analysis.mlc c)
      in
      max acc r)
    1.0
    (snd (Opt_u_repair.decompose d))
