(** Polynomial-time optimal U-repairs for the tractable cases established
    in Section 4.

    The solver composes the paper's positive results:

    - Theorem 4.3: consensus attributes [cl_Δ(∅)] are repaired
      independently by weighted majority vote per attribute
      (Proposition B.2), and removed from Δ;
    - Theorem 4.1: the remaining consensus-free set is split into
      attribute-disjoint components, each solved on its own attributes and
      composed;
    - Corollary 4.6: a component with a common lhs whose [OSRSucceeds]
      test passes is solved through an optimal S-repair, updating the
      common-lhs attribute of deleted tuples to fresh constants
      (mlc = 1, so the distance matches the S-repair distance, which by
      Corollary 4.5 lower-bounds the optimal update distance);
    - Proposition 4.9: a component equivalent to [{A → B, B → A}] is
      solved through an optimal S-repair, rewriting each deleted tuple
      into a surviving tuple it agrees with on A or on B.

    Components fitting none of these cases are refused with a diagnosis:
    either {e known APX-hard} (hard side of Corollary 4.6;
    Kolahi–Lakshmanan's [{A→B, B→C}]; Theorem 4.10's [Δ_{A↔B→C}]) or
    {e open} — the paper leaves the full U-repair dichotomy open. *)

open Repair_relational
open Repair_fd

type hardness =
  | Known_apx_hard of string  (** citation of the applicable result *)
  | Open_complexity

type failure = { component : Fd_set.t; hardness : hardness }

(** [consensus_majority tbl attrs] repairs the consensus FD [∅ → attrs]
    optimally: per attribute, the weighted-majority value is kept and
    written into every other tuple (Proposition B.2 / Corollary B.3). *)
val consensus_majority : Table.t -> Attr_set.t -> Table.t

(** [decompose d] is Section 4's split of Δ, the one every solver here
    uses: the consensus attributes [cl(∅)] of the normalized Δ (Theorem
    4.3), and the nontrivial attribute-disjoint components of the rest
    (Theorem 4.1), in {!Fd_set.components} order. *)
val decompose : Fd_set.t -> Attr_set.t * Fd_set.t list

(** [compose schema base updates] is Theorem 4.1's composition: for each
    (component attributes, component update) in order, the component's
    attribute values are copied into [base]. *)
val compose : Schema.t -> Table.t -> (Attr_set.t * Table.t) list -> Table.t

(** [solve ?budget ?runner d tbl] is [Ok u] with [u] an optimal
    U-repair, or [Error f] naming the first component the solver cannot
    handle in polynomial time. Each component is a [budget] checkpoint
    (phase ["opt-u-repair"]), and the budget also covers the embedded
    OptSRepair runs; exhaustion raises
    {!Repair_runtime.Repair_error.Budget_exhausted}.

    A [runner] wider than 1 solves Theorem 4.1's attribute-disjoint
    components as independent tasks through {!Table.fold_budgeted}.
    The result is bit-identical to the inline run: components compose in
    component order and worker metrics merge exactly. A limited
    [budget], or a Δ with any refused component (refusal is Δ-only),
    runs inline. *)
val solve :
  ?budget:Repair_runtime.Budget.t ->
  ?runner:Table.runner ->
  Fd_set.t ->
  Table.t ->
  (Table.t, failure) result

val solve_exn : ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t

(** [distance ?budget d tbl] is [dist_upd(U*, T)] when tractable. *)
val distance :
  ?budget:Repair_runtime.Budget.t ->
  Fd_set.t ->
  Table.t ->
  (float, failure) result

(** [tractable d] — would {!solve} succeed? Depends only on Δ. *)
val tractable : Fd_set.t -> bool

(** [diagnose d] is the failure {!solve} would report, if any. *)
val diagnose : Fd_set.t -> failure option

val pp_failure : Format.formatter -> failure -> unit
