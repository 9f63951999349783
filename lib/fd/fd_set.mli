(** Sets of functional dependencies (Section 2.2) and the structural
    primitives used by the paper's algorithms:

    - {!closure_of} — attribute-set closure [cl_Δ(X)];
    - {!minus} — [Δ − X], removing attributes from all sides;
    - {!common_lhs} — a common left-hand-side attribute;
    - {!consensus_fd} / {!consensus_attrs} — consensus FDs [∅ → Y] and the
      consensus attributes [cl_Δ(∅)];
    - {!lhs_marriage} — an lhs marriage [(X1, X2)] (Section 3);
    - {!is_chain} — chain FD sets (lhs's totally ordered by inclusion);
    - {!local_minima} — FDs with set-minimal lhs (Section 3.3). *)

open Repair_relational

type t

(** {1 Construction} *)

(** [of_list fds] builds an FD set, de-duplicating syntactically equal
    FDs. The order of first occurrence is preserved (it matters for
    human-readable simplification traces). *)
val of_list : Fd.t list -> t

val empty : t

(** [parse s] parses a semicolon-separated list of FDs, e.g.
    ["A B -> C; C -> A"]. An empty/blank string is the empty set. *)
val parse : string -> t

val to_list : t -> Fd.t list
val add : Fd.t -> t -> t
val union : t -> t -> t
val size : t -> int
val is_empty : t -> bool
val mem : Fd.t -> t -> bool
val filter : (Fd.t -> bool) -> t -> t
val map : (Fd.t -> Fd.t) -> t -> t

(** [equal_syntactic d1 d2] compares as sets of syntactic FDs (not logical
    equivalence; see {!equivalent}). *)
val equal_syntactic : t -> t -> bool

(** {1 Attributes} *)

(** [attrs d] is [attr(Δ)]: every attribute on any side of any FD. *)
val attrs : t -> Attr_set.t

(** {1 Logical reasoning} *)

(** [closure_of d x] is [cl_Δ(X)]. *)
val closure_of : t -> Attr_set.t -> Attr_set.t

(** [entails d fd] is [Δ ⊧ fd]. *)
val entails : t -> Fd.t -> bool

(** [equivalent d1 d2] holds iff the sets have the same closure. *)
val equivalent : t -> t -> bool

(** [consensus_attrs d] is [cl_Δ(∅)], the consensus attributes. *)
val consensus_attrs : t -> Attr_set.t

val is_consensus_free : t -> bool

(** {1 Structure} *)

(** [is_trivial d] holds iff [d] contains no nontrivial FD. *)
val is_trivial : t -> bool

val remove_trivial : t -> t

(** [normalize d] splits right-hand sides into singletons and removes
    trivial FDs (the convention of Section 3). *)
val normalize : t -> t

(** [minus d x] is [Δ − X]. FDs that become trivial are kept (callers
    remove them explicitly, as Algorithm 1 does). *)
val minus : t -> Attr_set.t -> t

(** [common_lhs d] is an attribute occurring in the lhs of {e every} FD, if
    any (smallest lexicographically for determinism). [None] when [d] is
    empty. *)
val common_lhs : t -> Attr_set.attribute option

(** [consensus_fd d] is a syntactic consensus FD [∅ → Y] of [d] with
    [Y ≠ ∅], if any. *)
val consensus_fd : t -> Fd.t option

(** [lhs_marriage d] is an lhs marriage: a pair [(X1, X2)] of distinct FD
    left-hand sides with [cl_Δ(X1) = cl_Δ(X2)] such that every FD's lhs
    contains [X1] or [X2]. *)
val lhs_marriage : t -> (Attr_set.t * Attr_set.t) option

(** [is_chain d] holds iff lhs's are totally ordered by inclusion. *)
val is_chain : t -> bool

(** [lhss d] is the list of distinct left-hand sides. *)
val lhss : t -> Attr_set.t list

(** [local_minima d] is the list of distinct set-minimal left-hand sides
    (the "local minima" of Section 3.3). *)
val local_minima : t -> Attr_set.t list

(** [is_unary d] holds iff every FD has a singleton lhs. *)
val is_unary : t -> bool

(** [components d] partitions [d] into maximal attribute-disjoint
    sub-sets: two FDs belong to the same component iff they are linked by a
    chain of FDs sharing attributes. Theorem 4.1 allows solving each
    component independently. Trivial FDs over the empty attribute set form
    their own (irrelevant) component. *)
val components : t -> t list

(** {1 Satisfaction (Section 2.2)} *)

(** [satisfied_by d tbl] is [T ⊧ Δ]. *)
val satisfied_by : t -> Table.t -> bool

(** [violations d tbl] lists all [(i, j, fd)] with [i < j] such that tuples
    [T[i]], [T[j]] jointly violate [fd]; a pair that violates several FDs
    appears once per FD. The list is sorted by [i], then [j], then the
    position of [fd] in [d].

    Pairs are only sought inside each FD's lhs groups, and groups that
    agree on the rhs are skipped, so the cost is O(|Δ|·n + v log v) for
    n tuples and v listed violations (one hash partition per FD, then a
    sort of the output), not the O(|Δ|·n²) of testing every pair. Tables
    with fewer than two tuples give [[]] without consulting the schema. *)
val violations : t -> Table.t -> (Table.id * Table.id * Fd.t) list

(** [pair_consistent d schema t1 t2] holds iff [{t1, t2}] satisfies [d]. *)
val pair_consistent : t -> Schema.t -> Tuple.t -> Tuple.t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
