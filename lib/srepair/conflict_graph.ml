open Repair_relational
open Repair_fd
module G = Repair_graph.Graph

type t = {
  graph : G.t;
  ids : Table.id array; (* dense vertex -> tuple id *)
}

module Metrics = Repair_obs.Metrics

let record_built cg =
  Metrics.incr ~by:(Array.length cg.ids) "conflict-graph.vertices";
  Metrics.incr ~by:(G.n_edges cg.graph) "conflict-graph.edges";
  Repair_obs.Trace.instant "conflict-graph.built";
  cg

let build ?(runner = Table.seq_runner) d tbl =
  Metrics.with_span "conflict-graph.build" @@ fun () ->
  let ids = Table.View.ids_array tbl in
  let n = Array.length ids in
  let weights = Array.init n (fun v -> Table.View.weight tbl v) in
  let graph = G.create_weighted weights in
  (* For each FD X → Y: group tuples by their X-projection; within a group,
     split by the Y-projection; any two tuples in different Y-subgroups of
     the same X-group conflict. Grouping works on visible row positions,
     which ARE the dense vertex ids, so the cross-product loop emits edges
     straight from the position arrays — no id→vertex lookups. *)
  let all = Array.init n (fun v -> v) in
  let add_fd fd =
    let cross emit group =
      let rec go = function
        | [] -> ()
        | g1 :: rest ->
          List.iter
            (fun g2 ->
              Array.iter (fun u -> Array.iter (fun v -> emit u v) g2) g1)
            rest;
          go rest
      in
      go (Table.View.group_within tbl group (Fd.rhs fd))
    in
    let groups = Table.View.group_within tbl all (Fd.lhs fd) in
    let n_groups = List.length groups in
    let shards = max 1 (min runner.Table.width n_groups) in
    if shards = 1 then
      List.iter (cross (fun u v -> G.add_edge graph u v)) groups
    else begin
      (* Shard contiguous runs of lhs-groups over the runner. Shards only
         read the store and return their edges in generation order;
         replaying them in shard order reproduces the one-shard
         [add_edge] sequence exactly. *)
      let groups = Array.of_list groups in
      let base = n_groups / shards and rem = n_groups mod shards in
      let shard_edges s () =
        let len = base + if s < rem then 1 else 0 in
        let lo = (s * base) + min s rem in
        let acc = ref [] in
        for g = lo to lo + len - 1 do
          cross (fun u v -> acc := (u, v) :: !acc) groups.(g)
        done;
        List.rev !acc
      in
      runner.Table.run (Array.init shards shard_edges)
      |> Array.iter (List.iter (fun (u, v) -> G.add_edge graph u v))
    end
  in
  List.iter add_fd (Fd_set.to_list (Fd_set.remove_trivial d));
  record_built { graph; ids }

let build_naive d tbl =
  Metrics.with_span "conflict-graph.build-naive" @@ fun () ->
  let d = Fd_set.remove_trivial d in
  let schema = Table.schema tbl in
  let ids = Array.of_list (Table.ids tbl) in
  let n = Array.length ids in
  let weights = Array.map (fun i -> Table.weight tbl i) ids in
  let graph = G.create_weighted weights in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if
        not
          (Fd_set.pair_consistent d schema
             (Table.tuple tbl ids.(a))
             (Table.tuple tbl ids.(b)))
      then G.add_edge graph a b
    done
  done;
  record_built { graph; ids }

let graph cg = cg.graph
let id_of_vertex cg v = cg.ids.(v)
let n_conflicts cg = G.n_edges cg.graph

let delete_cover cg tbl cover =
  Table.remove tbl (List.map (id_of_vertex cg) cover)
