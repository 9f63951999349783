(** The conflict graph of a table under an FD set (Proposition 3.3).

    Vertices are the table's tuples, weighted by tuple weight: vertex [v]
    is the table's [v]-th row in increasing id order (its visible
    position, {!Table.View}). There is an edge between two vertices iff
    their tuples jointly violate some FD of Δ. Consistent subsets of [T]
    are exactly the complements of vertex covers, so a minimum-weight
    vertex cover yields an optimal S-repair. *)

open Repair_relational
open Repair_fd

type t

(** [build ?runner d tbl] constructs the conflict graph. Edges are
    discovered per FD by grouping on the lhs projection and crossing the
    rhs-distinct subgroups, so construction is output-sensitive rather
    than always quadratic. A [runner] wider than 1 shards the edge
    discovery over contiguous runs of lhs-groups; the grouping itself
    is one sequential pass. Shards return their edges, which are added
    in shard order, so the graph — adjacency order and counters
    included — is bit-identical to the one-shard build. *)
val build : ?runner:Table.runner -> Fd_set.t -> Table.t -> t

(** [build_naive d tbl] constructs the same graph by testing all O(|T|²)
    tuple pairs against every FD — the ablation baseline showing why
    {!build} groups on lhs projections first. *)
val build_naive : Fd_set.t -> Table.t -> t

(** The underlying weighted graph (vertex [v] is the [v]-th row in id
    order). *)
val graph : t -> Repair_graph.Graph.t

(** [id_of_vertex cg v] maps a dense vertex index back to the tuple id. *)
val id_of_vertex : t -> int -> Table.id

(** [n_conflicts cg] is the number of conflicting pairs. *)
val n_conflicts : t -> int

(** [delete_cover cg tbl cover] removes the tuples of a vertex cover from
    the table, yielding a consistent subset. *)
val delete_cover : t -> Table.t -> int list -> Table.t
