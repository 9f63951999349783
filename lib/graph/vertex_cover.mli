(** Weighted vertex cover: exact and 2-approximate.

    The paper reduces optimal S-repairing to minimum weighted vertex cover
    of the conflict graph (Proposition 3.3); the 2-approximation is the
    local-ratio algorithm of Bar-Yehuda and Even, and the exact solver
    (branch-and-bound) is our optimality baseline for small instances. *)

(** [is_cover g vs] holds iff [vs] touches every edge of [g]. *)
val is_cover : Graph.t -> int list -> bool

(** [approx2 g] is a vertex cover of weight at most twice the minimum, in
    time O(n + m) (Bar-Yehuda–Even local-ratio). Sorted ascending. *)
val approx2 : Graph.t -> int list

(** [greedy g] is the classic max-degree-first heuristic cover (no ratio
    guarantee for weighted instances). {!exact} starts from it as its
    incumbent. *)
val greedy : Graph.t -> int list

(** [exact ?budget ?matching_bound g] is a minimum-weight vertex cover, by
    branch and bound on the heaviest uncovered edge with a greedy incumbent
    and — unless [matching_bound] is [false] (ablation) — a matching-based
    lower bound. Exponential in the worst case; intended for baseline
    checks on small graphs (tens of vertices). Sorted ascending.

    Every branch-and-bound node is a [budget] checkpoint (phase
    ["vertex-cover"]); on exhaustion the search raises
    {!Repair_runtime.Repair_error.Budget_exhausted}. *)
val exact :
  ?budget:Repair_runtime.Budget.t -> ?matching_bound:bool -> Graph.t -> int list

(** [cover_weight g vs] sums the cover's vertex weights. *)
val cover_weight : Graph.t -> int list -> float

(** [matching_lower_bound g] — the greedy-matching bound used inside
    {!exact}: the sum of [min(w u, w v)] over a maximal matching. *)
val matching_lower_bound : Graph.t -> float

(** [lp_lower_bound g] — the LP-relaxation bound: half the minimum-weight
    vertex cover of the bipartite double cover, computed as a minimum s-t
    cut ({!Max_flow}). Always at least the greedy-matching bound and at
    most the optimum; exact on bipartite graphs. *)
val lp_lower_bound : Graph.t -> float
