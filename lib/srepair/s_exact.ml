open Repair_relational
open Repair_fd
open Repair_runtime
module Vc = Repair_graph.Vertex_cover

let method_name = "exact minimum-weight vertex cover (baseline)"
let size_limit = 64

let optimal ?budget d tbl =
  Repair_obs.Metrics.with_span "s-exact" @@ fun () ->
  let cg = Conflict_graph.build d tbl in
  let cover = Vc.exact ?budget (Conflict_graph.graph cg) in
  Conflict_graph.delete_cover cg tbl cover

let distance ?budget d tbl = Table.dist_sub (optimal ?budget d tbl) tbl

let brute_force ?(budget = Budget.unlimited ()) d tbl =
  Repair_obs.Metrics.with_span "s-exact.brute-force" @@ fun () ->
  let ids = Array.of_list (Table.ids tbl) in
  let n = Array.length ids in
  if n > 22 then invalid_arg "S_exact.brute_force: table too large";
  let best = ref (Table.empty (Table.schema tbl)) in
  let best_weight = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    Budget.tick ~phase:"s-exact-brute" budget;
    let keep = ref [] in
    for b = 0 to n - 1 do
      if mask land (1 lsl b) <> 0 then keep := ids.(b) :: !keep
    done;
    let s = Table.restrict tbl !keep in
    if Table.total_weight s > !best_weight && Fd_set.satisfied_by d s then begin
      best := s;
      best_weight := Table.total_weight s
    end
  done;
  !best
