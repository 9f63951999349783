open Repair_relational
module Vc = Repair_graph.Vertex_cover

let approx2 ?runner d tbl =
  Repair_obs.Metrics.with_span "s-approx" @@ fun () ->
  let cg = Conflict_graph.build ?runner d tbl in
  let cover = Vc.approx2 (Conflict_graph.graph cg) in
  Conflict_graph.delete_cover cg tbl cover

let distance d tbl = Table.dist_sub (approx2 d tbl) tbl
