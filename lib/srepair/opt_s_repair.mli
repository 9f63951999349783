(** Algorithm 1 ([OptSRepair]) with its three subroutines.

    The algorithm repeatedly simplifies (Δ, T):

    - {e common lhs} ([CommonLHSRep], Subroutine 1): if some attribute [A]
      occurs in every lhs, partition by [A], solve each block under
      [Δ − A], and return the union;
    - {e consensus} ([ConsensusRep], Subroutine 2): if Δ has a consensus FD
      [∅ → X], partition by [X], solve each block under [Δ − X], and keep
      the heaviest block repair;
    - {e lhs marriage} ([MarriageRep], Subroutine 3): if Δ has an lhs
      marriage [(X1, X2)], solve each [(a1, a2)]-block under [Δ − X1X2],
      and combine blocks with a maximum-weight bipartite matching between
      the [X1]- and [X2]-projections.

    If none applies and Δ is still nontrivial, the algorithm fails; by the
    dichotomy (Theorem 3.4) the problem is then APX-complete. On success
    the result is an optimal S-repair (Theorem 3.2), and the run takes
    polynomial time even under combined complexity. *)

open Repair_relational
open Repair_fd

(** [run ?budget ?runner d tbl] executes OptSRepair. [Ok s] is an
    optimal S-repair; [Error stuck] reports the simplified-but-nontrivial
    FD set on which the algorithm got stuck. Every recursive
    simplification step is a [budget] checkpoint (phase
    ["opt-s-repair"]); exhaustion raises
    {!Repair_runtime.Repair_error.Budget_exhausted}.

    A [runner] wider than 1 chunks the top-level grouping pass and
    solves the top-level blocks as independent tasks through
    {!Table.fold_budgeted}; each block's own recursion stays sequential
    inside its task. Results are bit-identical at any width —
    distances, block unions, metrics counters and tick totals — because
    blocks combine in group order and worker metrics merge exactly. A
    limited [budget] keeps every block inline, so exhaustion points are
    preserved bit for bit. *)
val run :
  ?budget:Repair_runtime.Budget.t ->
  ?runner:Table.runner ->
  Fd_set.t ->
  Table.t ->
  (Table.t, Fd_set.t) result

(** [run_exn ?budget d tbl] is [run], raising [Failure] on the hard
    side. *)
val run_exn : ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t

(** [distance ?budget d tbl] is the optimal S-repair distance
    [dist_sub(S*, T)], when computable by OptSRepair. *)
val distance :
  ?budget:Repair_runtime.Budget.t ->
  Fd_set.t ->
  Table.t ->
  (float, Fd_set.t) result

(** Raised by the raw entry points below when no simplification applies
    to the (simplified, nontrivial) FD set — the hard side of the
    dichotomy. [run] turns it into [Error]. *)
exception Stuck of Fd_set.t

(** [solve_block ?budget d tbl] is the raw recursive solve on one block:
    exactly the computation a batch [run] performs on a sub-table under a
    residual FD set, including its spans and budget ticks, but without
    the top-level ["opt-s-repair"] span. Streaming maintenance (DESIGN
    §16) uses it to (re)solve a single dirty block.
    @raise Stuck on the hard side. *)
val solve_block :
  ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t

(** [check_delta_only d] simulates the simplification chain without data
    (Theorem 3.4: success depends on Δ only).
    @raise Stuck when the chain gets stuck. *)
val check_delta_only : Fd_set.t -> unit

(** [marriage_combine schema blocks] is the matching tail of Subroutine 3:
    given each (X1∪X2)-block's two projections and its solved repair,
    keep the maximum-weight matching between X1- and X2-values. Exposed
    so cached block repairs can be recombined exactly as the batch path
    combines fresh ones. *)
val marriage_combine :
  Schema.t -> (Tuple.t * Tuple.t * Table.t) list -> Table.t
