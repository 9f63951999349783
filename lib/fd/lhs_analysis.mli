(** Left-hand-side analysis: the quantities governing the U-repair
    approximation ratios of Section 4.

    - [mlc(Δ)] — minimum cardinality of an {e lhs cover}, a set of
      attributes hitting every FD's lhs (Section 4). Our Theorem 4.12
      ratio is [2·mlc(Δ)].
    - [MFS(Δ)] — maximum lhs size, and [MCI(Δ)] — largest minimum core
      implicant, the two measures of Kolahi and Lakshmanan whose ratio is
      [(MCI + 2)(2·MFS − 1)] (Theorem 4.13). *)

open Repair_relational

(** [lhs_cover d] is a minimum-cardinality lhs cover of [d].

    @raise Invalid_argument if [d] contains a (nontrivial) consensus FD —
    an empty lhs cannot be hit — or is empty. *)
val lhs_cover : Fd_set.t -> Attr_set.t

(** [mlc d] is the cardinality of a minimum lhs cover. *)
val mlc : Fd_set.t -> int

(** [mfs d] is [MFS(Δ)]: the maximum number of attributes in any lhs
    (after normalization to singleton right-hand sides). 0 for trivial
    sets. *)
val mfs : Fd_set.t -> int

(** [implicants d a] is the list of {e minimal} implicants of attribute
    [a]: minimal sets [X] with [a ∈ cl_Δ(X)] and [a ∉ X], restricted to
    [X ⊆ attr(Δ)]. *)
val implicants : Fd_set.t -> Attr_set.attribute -> Attr_set.t list

(** [min_core_implicant d a] is a minimum-cardinality core implicant of
    [a]: a smallest attribute set hitting every implicant of [a]. The
    empty set when [a] has no implicant. *)
val min_core_implicant : Fd_set.t -> Attr_set.attribute -> Attr_set.t

(** [mci d] is [MCI(Δ)]: the size of the largest minimum core implicant
    over all attributes of [attr(Δ)]. *)
val mci : Fd_set.t -> int

(** [kl_ratio d] is the Kolahi–Lakshmanan approximation ratio
    [(MCI(Δ) + 2)·(2·MFS(Δ) − 1)] (Theorem 4.13). *)
val kl_ratio : Fd_set.t -> int
