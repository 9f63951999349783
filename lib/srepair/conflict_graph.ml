open Repair_relational
open Repair_fd
module G = Repair_graph.Graph

type t = {
  graph : G.t;
  ids : Table.id array; (* dense vertex -> tuple id *)
  index : (Table.id, int) Hashtbl.t;
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
  let index = Hashtbl.create n in
  Array.iteri (fun v i -> Hashtbl.add index i v) ids;
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
    let groups = Table.View.group_within ~runner tbl all (Fd.lhs fd) in
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
  record_built { graph; ids; index }

let build_naive d tbl =
  Metrics.with_span "conflict-graph.build-naive" @@ fun () ->
  let d = Fd_set.remove_trivial d in
  let schema = Table.schema tbl in
  let ids = Array.of_list (Table.ids tbl) in
  let n = Array.length ids in
  let index = Hashtbl.create n in
  Array.iteri (fun v i -> Hashtbl.add index i v) ids;
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
  record_built { graph; ids; index }

(* Streaming maintenance (DESIGN §16): the conflict graph under tuple
   inserts and deletes, at O(affected-group) cost per delta. The edge
   store is [Vertex_cover.Incremental] — slots allocate in insertion
   order, which [insert]'s monotone-id contract keeps equal to id order,
   so materializing the survivors yields the id-ordered dense graph
   [build] would construct from scratch. Edge discovery on insert only
   looks at the new tuple's own lhs-groups: for each FD X -> Y it joins
   the per-FD hash index on t[X] and conflicts with exactly the members
   it disagrees with on Y — the same pairs [build]'s
   subgroup-and-cross pass would emit. *)
module Incremental = struct
  module Vci = Repair_graph.Vertex_cover.Incremental
  module Iset = Set.Make (Int)

  module Ttbl = Hashtbl.Make (struct
    type t = Tuple.t

    let equal = Tuple.equal
    let hash = Tuple.hash
  end)

  type t = {
    schema : Schema.t;
    fds : (Attr_set.t * Attr_set.t) list; (* nontrivial (lhs, rhs) *)
    vc : Vci.t;
    groups : Iset.t ref Ttbl.t array; (* per FD: lhs projection -> slots *)
    mutable ids : Table.id array; (* slot -> tuple id *)
    mutable tuples : Tuple.t array; (* slot -> tuple *)
    slot_of : (Table.id, int) Hashtbl.t;
    mutable last_id : int;
  }

  let create d schema =
    let fds =
      Fd_set.to_list (Fd_set.remove_trivial d)
      |> List.map (fun fd -> (Fd.lhs fd, Fd.rhs fd))
    in
    {
      schema;
      fds;
      vc = Vci.create ();
      groups = Array.init (List.length fds) (fun _ -> Ttbl.create 64);
      ids = [||];
      tuples = [||];
      slot_of = Hashtbl.create 64;
      last_id = min_int;
    }

  let insert t ~id ~weight tuple =
    if id <= t.last_id then
      invalid_arg
        (Printf.sprintf
           "Conflict_graph.Incremental.insert: id %d not above the last id %d"
           id t.last_id);
    let slot = Vci.add_vertex t.vc ~weight in
    let cap = Array.length t.ids in
    if slot = cap then begin
      let cap' = max 8 (2 * cap) in
      let ids = Array.make cap' 0 in
      let tuples = Array.make cap' tuple in
      Array.blit t.ids 0 ids 0 cap;
      Array.blit t.tuples 0 tuples 0 cap;
      t.ids <- ids;
      t.tuples <- tuples
    end;
    t.ids.(slot) <- id;
    t.tuples.(slot) <- tuple;
    Hashtbl.replace t.slot_of id slot;
    t.last_id <- id;
    List.iteri
      (fun k (lhs, rhs) ->
        let key = Tuple.project t.schema tuple lhs in
        let cell =
          match Ttbl.find_opt t.groups.(k) key with
          | Some c -> c
          | None ->
            let c = ref Iset.empty in
            Ttbl.add t.groups.(k) key c;
            c
        in
        Iset.iter
          (fun m ->
            if not (Tuple.agree_on t.schema tuple t.tuples.(m) rhs) then
              Vci.add_edge t.vc slot m)
          !cell;
        cell := Iset.add slot !cell)
      t.fds

  let delete t id =
    match Hashtbl.find_opt t.slot_of id with
    | None ->
      invalid_arg
        (Printf.sprintf "Conflict_graph.Incremental.delete: unknown id %d" id)
    | Some slot ->
      Hashtbl.remove t.slot_of id;
      Vci.remove_vertex t.vc slot;
      List.iteri
        (fun k (lhs, _) ->
          let key = Tuple.project t.schema t.tuples.(slot) lhs in
          match Ttbl.find_opt t.groups.(k) key with
          | None -> ()
          | Some cell ->
            cell := Iset.remove slot !cell;
            if Iset.is_empty !cell then Ttbl.remove t.groups.(k) key)
        t.fds

  let of_table d tbl =
    let t = create d (Table.schema tbl) in
    let n = Table.View.length tbl in
    for p = 0 to n - 1 do
      insert t ~id:(Table.View.id tbl p) ~weight:(Table.View.weight tbl p)
        (Table.View.tuple tbl p)
    done;
    t

  let size t = Vci.n_alive t.vc
  let n_conflicts t = Vci.n_edges t.vc
  let store t = t.vc
  let mem t id = Hashtbl.mem t.slot_of id

  (* Densify the survivors into an ordinary conflict graph, with
     [build]'s instrumentation. Alive slots ascending = id ascending, so
     vertices, weights, and (set-based) adjacency coincide with a fresh
     [build] on the materialized table. *)
  let materialize t =
    Metrics.with_span "conflict-graph.build" @@ fun () ->
    let graph, slots = Vci.to_graph t.vc in
    let ids = Array.map (fun s -> t.ids.(s)) slots in
    let index = Hashtbl.create (Array.length ids) in
    Array.iteri (fun v i -> Hashtbl.add index i v) ids;
    record_built { graph; ids; index }
end

let graph cg = cg.graph
let id_of_vertex cg v = cg.ids.(v)
let vertex_of_id cg i = Hashtbl.find cg.index i
let n_conflicts cg = G.n_edges cg.graph

let delete_cover cg tbl cover =
  Table.remove tbl (List.map (id_of_vertex cg) cover)
