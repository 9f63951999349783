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

    {b Plan executor.} The step taken depends on Δ only, so every block
    at one depth takes the same step, and {!Repair_dichotomy.Simplify.run}'s
    trace of a block's residual Δ is a plan for the whole block. The top
    level of {!run} and {!fold} groups the table once on the first
    step's partition, solves the blocks — as independent tasks under a
    wide runner — and combines them with {!combine}. Below it, each
    block runs its plan: one {!Table.View.refine} pass per depth numbers
    that depth's blocks, and the steps then apply bottom-up to a bitmap
    of kept rows, which becomes one {!Table.View.of_positions}. Nothing
    below the top level builds a sub-table or a union, or opens a span.
    The choices are exactly {!combine}'s, which shares its subroutine
    definitions with the executor: block weights are summed over the
    kept rows in id order, consensus keeps the first heaviest block in
    key order, and marriage numbers the blocks in key order
    ([Tuple.compare] on the projection, the order of {!Table.group_by}).

    The budget ticks once per block of every depth as the blocks are
    numbered — one tick per node of Algorithm 1's recursion, so step
    budgets, deadlines and fault checkpoints cut a run after as many
    steps as the recursion took. [Repair_enumerate.Count] folds
    (weight, count) pairs over the same levels with {!fold}. Streaming
    maintenance (DESIGN §16) applies {!span_name} and {!combine} to
    cached {!solve_block} repairs. *)

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
    FD set on which the algorithm got stuck. Every block of every depth
    is a [budget] checkpoint (phase ["opt-s-repair"]); exhaustion raises
    {!Repair_runtime.Repair_error.Budget_exhausted}. The spans are
    ["opt-s-repair"] and, below it, the top-level step's
    ({!span_name}): one each per run.

    A [runner] wider than 1 solves the top-level blocks as independent
    tasks through {!Table.fold_budgeted}; the top-level grouping pass,
    and each block's plan inside its task, run sequentially. Results are bit-identical at any width —
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

(** [fold ~leaf ~combine ?budget ?runner d tbl] runs Algorithm 1 over
    the plan's levels, carrying a value of any type: a block whose
    residual FD set is trivial (or empty, on an empty table) is [leaf
    block], a sub-view of [tbl], and at every depth the blocks inside
    one enclosing block are combined by [combine schema step blocks], in
    group order, as for {!combine}. Ticks, the top-level span and the
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

(** [solve_block ?budget d tbl] runs the plan of [d] on one block: the
    plan executor a batch [run] applies to each top-level block under
    the residual FD set, with the same budget ticks. It opens no span.
    Streaming maintenance (DESIGN §16) uses it to (re)solve a single
    dirty block. Its work and memory are O(|tbl|) per plan depth,
    whatever the size of the table's store or value pool.
    @raise Stuck on the hard side. *)
val solve_block :
  ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t
