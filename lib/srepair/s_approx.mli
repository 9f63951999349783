(** The polynomial-time 2-approximation of optimal S-repairs
    (Proposition 3.3): Bar-Yehuda–Even weighted vertex cover on the
    conflict graph. The reduction is strict, so the cover's factor-2
    guarantee carries over to the repair distance. *)

open Repair_relational
open Repair_fd

(** The method name the driver reports for a run of {!approx2}. *)
val method_name : string

(** [approx2 ?runner d tbl] is a consistent subset [S] with
    [dist_sub(S, T) ≤ 2 · dist_sub(S*, T)]. [runner] goes to
    {!Conflict_graph.build}; the result is bit-identical at any width,
    because the vertex-cover pass sees the same graph. *)
val approx2 : ?runner:Table.runner -> Fd_set.t -> Table.t -> Table.t

(** [distance d tbl] is the achieved (not optimal) distance. *)
val distance : Fd_set.t -> Table.t -> float
