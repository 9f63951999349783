(** The conflict graph of a table under an FD set (Proposition 3.3).

    Vertices are tuple identifiers (weighted by tuple weight); there is an
    edge between [i] and [j] iff [{T[i], T[j]}] violates some FD of Δ.
    Consistent subsets of [T] are exactly the complements of vertex covers,
    so a minimum-weight vertex cover yields an optimal S-repair. *)

open Repair_relational
open Repair_fd

type t

(** [build ?runner d tbl] constructs the conflict graph. Edges are
    discovered per FD by grouping on the lhs projection and crossing the
    rhs-distinct subgroups, so construction is output-sensitive rather
    than always quadratic. A [runner] wider than 1 chunks the grouping
    pass (see {!Table.group_by}) and shards the edge discovery over
    contiguous runs of lhs-groups; shards return their edges, which are
    added in shard order, so the graph — adjacency order and counters
    included — is bit-identical to the one-shard build. *)
val build : ?runner:Table.runner -> Fd_set.t -> Table.t -> t

(** [build_naive d tbl] constructs the same graph by testing all O(|T|²)
    tuple pairs against every FD — the ablation baseline showing why
    {!build} groups on lhs projections first. *)
val build_naive : Fd_set.t -> Table.t -> t

(** The underlying weighted graph (vertices are dense indices). *)
val graph : t -> Repair_graph.Graph.t

(** [id_of_vertex cg v] maps a dense vertex index back to the tuple id. *)
val id_of_vertex : t -> int -> Table.id

(** [vertex_of_id cg i] maps a tuple id to its dense index. *)
val vertex_of_id : t -> Table.id -> int

(** [n_conflicts cg] is the number of conflicting pairs. *)
val n_conflicts : t -> int

(** [delete_cover cg tbl cover] removes the tuples of a vertex cover from
    the table, yielding a consistent subset. *)
val delete_cover : t -> Table.t -> int list -> Table.t

type cg := t

(** Streaming maintenance (DESIGN §16): the conflict graph under tuple
    inserts and deletes at O(affected-group) cost per delta, with
    {!Repair_graph.Vertex_cover.Incremental} as the edge store.

    On insert, the new tuple is compared only against its own lhs-group
    per FD (a hash-index join on [t[X]]), emitting exactly the conflict
    edges {!build}'s subgroup-and-cross pass would discover; on delete,
    the vertex and its incident edges drop in O(deg). Ids must arrive in
    strictly increasing order and are never reused, which keeps slot
    order equal to id order — so {!Incremental.materialize} yields a
    conflict graph structurally identical to a fresh {!build} on the
    surviving tuples, emitted under the same ["conflict-graph.build"]
    span with the same counters. *)
module Incremental : sig
  type t

  (** [create d schema] — an empty maintainer for the nontrivial FDs of
      [d]. *)
  val create : Fd_set.t -> Schema.t -> t

  (** [of_table d tbl] seeds a maintainer by inserting every visible row
      in position (= id) order. *)
  val of_table : Fd_set.t -> Table.t -> t

  (** [insert t ~id ~weight tuple] — O(affected lhs-groups).
      @raise Invalid_argument unless [id] exceeds every id seen. *)
  val insert : t -> id:Table.id -> weight:float -> Tuple.t -> unit

  (** [delete t id] — O(deg) plus the per-FD group-index updates.
      @raise Invalid_argument if [id] is not live. *)
  val delete : t -> Table.id -> unit

  (** Live tuple count. *)
  val size : t -> int

  (** Live conflicting-pair count. *)
  val n_conflicts : t -> int

  val mem : t -> Table.id -> bool

  (** The underlying incremental vertex-cover store. *)
  val store : t -> Repair_graph.Vertex_cover.Incremental.t

  (** Densify the survivors into an ordinary conflict graph — same
      structure, instrumentation, and counters as a fresh {!build} on the
      materialized table. *)
  val materialize : t -> cg
end
