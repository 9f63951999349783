(** Algorithm 1 ([OptSRepair]).

    The algorithm repeatedly simplifies (Δ, T). Each step, chosen by
    {!Repair_dichotomy.Simplify.step}, partitions the table on the
    attribute set X of {!Repair_dichotomy.Simplify.partition}, solves
    every block under Δ − X, and combines the block repairs:

    - {e common lhs} ([CommonLHSRep], Subroutine 1): some attribute [A]
      occurs in every lhs; X = [A], and the result is the union of the
      block repairs;
    - {e consensus} ([ConsensusRep], Subroutine 2): Δ has a consensus FD
      [∅ → X]; the result is the heaviest block repair;
    - {e lhs marriage} ([MarriageRep], Subroutine 3): Δ has an lhs
      marriage [(X1, X2)]; X = X1X2, and the block repairs are combined
      by a maximum-weight bipartite matching between the [X1]- and
      [X2]-projections.

    If none applies and Δ is still nontrivial, the algorithm fails; by the
    dichotomy (Theorem 3.4) the problem is then APX-complete. On success
    the result is an optimal S-repair (Theorem 3.2), and the run takes
    polynomial time even under combined complexity.

    {!fold} is the one recursion of the algorithm: {!run} and
    {!solve_block} are that fold with {!combine}, and
    [Repair_enumerate.Count] folds (weight, count) pairs over it.
    Streaming maintenance (DESIGN §16) applies {!span_name} and
    {!combine} to cached block repairs. *)

open Repair_relational
open Repair_fd

(** The method name the driver reports for a run of {!run}. *)
val method_name : string

(** [span_name s] is the metrics span a step runs under:
    ["common-lhs"], ["consensus"] or ["marriage"]. *)
val span_name : Repair_dichotomy.Simplify.step -> string

(** [combine schema s blocks] combines the solved blocks of one step,
    given in group order (sorted on their X-projection), each as (any
    member tuple of the block, the block's optimal repair): the
    {!Table.union_all} of the repairs for common lhs, the first heaviest
    repair for consensus, and the union of the matched repairs for lhs
    marriage. *)
val combine :
  Schema.t ->
  Repair_dichotomy.Simplify.step ->
  (Tuple.t * Table.t) list ->
  Table.t

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

(** [fold ~leaf ~combine ?budget ?runner d tbl] runs Algorithm 1's
    recursion, carrying a value of any type: a block whose residual FD
    set is trivial (or empty, on an empty table) is [leaf block], and the
    solved blocks of each step are combined by [combine schema step
    blocks], in group order, as for {!combine}. Ticks, spans and the
    top-level fan-out are those of {!run}, without its
    ["opt-s-repair"] span.
    @raise Stuck on the hard side, the empty table included. *)
val fold :
  leaf:(Table.t -> 'a) ->
  combine:
    (Schema.t ->
    Repair_dichotomy.Simplify.step ->
    (Tuple.t * 'a) list ->
    'a) ->
  ?budget:Repair_runtime.Budget.t ->
  ?runner:Table.runner ->
  Fd_set.t ->
  Table.t ->
  'a

(** [solve_block ?budget d tbl] is the raw recursive solve on one block:
    exactly the computation a batch [run] performs on a sub-table under a
    residual FD set, including its spans and budget ticks, but without
    the top-level ["opt-s-repair"] span. Streaming maintenance (DESIGN
    §16) uses it to (re)solve a single dirty block.
    @raise Stuck on the hard side. *)
val solve_block :
  ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t
