(** Tables: the paper's data model (Section 2.1).

    A table [T] over a schema maps each tuple identifier [i ∈ ids(T)] to a
    tuple [T[i]] and a positive, finite weight [w_T(i)]. Duplicate tuples (equal
    tuples under distinct identifiers) are allowed. Tables are immutable;
    all operations are persistent.

    Internally a table is an id-slice view over an append-only columnar
    store whose values are interned into dense codes (see DESIGN §11):
    [group_by], [select], [restrict] and same-store [union] return
    O(result-size) views sharing the backing arrays, and grouping is a
    single hash pass over interned code columns. None of this changes
    the observable semantics above. *)

type t

type id = int

(** {1 Construction} *)

(** [empty schema] is the table with no tuples. *)
val empty : Schema.t -> t

(** [add ?id ?weight tbl tuple] adds a tuple. When [id] is omitted, a fresh
    identifier (one above the current maximum) is used. [weight] defaults
    to [1.0].

    @raise Invalid_argument if the id is already used, the weight is not
    positive and finite (NaN included), or the tuple arity mismatches
    the schema. *)
val add : ?id:id -> ?weight:float -> t -> Tuple.t -> t

(** [of_list schema rows] builds a table from [(id, weight, tuple)] rows. *)
val of_list : Schema.t -> (id * float * Tuple.t) list -> t

(** [of_tuples schema tuples] numbers tuples 1..n with unit weights. *)
val of_tuples : Schema.t -> Tuple.t list -> t

(** Bulk construction. A builder accumulates rows and commits them into
    a columnar store in one pass — ids are tracked with a hash set and a
    running maximum, so loading n rows is O(n) instead of the O(n log n)
    (plus a max-binding walk per insert) of folding {!add}. Used by the
    IO front-ends. *)
module Builder : sig
  type table := t
  type t

  val create : ?capacity:int -> Schema.t -> t

  (** Rows accumulated so far. *)
  val length : t -> int

  (** Same contract and error messages as {!Table.add}: omitted ids get
      one above the current maximum, duplicate ids / weights that are
      not positive and finite / arity mismatches raise
      [Invalid_argument]. *)
  val add : ?id:id -> ?weight:float -> t -> Tuple.t -> unit

  (** Commit the accumulated rows. The builder must not be reused. *)
  val build : t -> table
end

(** {1 Access} *)

val schema : t -> Schema.t

(** [ids tbl] is [ids(T)], in increasing order. *)
val ids : t -> id list

(** [size tbl] is [|T|], the number of tuple identifiers. *)
val size : t -> int

val is_empty : t -> bool
val mem : t -> id -> bool

(** [tuple tbl i] is [T[i]].
    @raise Not_found if [i ∉ ids(T)]. *)
val tuple : t -> id -> Tuple.t

(** [weight tbl i] is [w_T(i)].
    @raise Not_found if [i ∉ ids(T)]. *)
val weight : t -> id -> float

val find_opt : t -> id -> (Tuple.t * float) option

(** [tuples tbl] is the list of tuples [T[*]] (with duplicates, in id
    order). *)
val tuples : t -> Tuple.t list

(** [total_weight tbl] is [w_T(T)], the sum of all tuple weights. *)
val total_weight : t -> float

val fold : (id -> Tuple.t -> float -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (id -> Tuple.t -> float -> unit) -> t -> unit
val for_all : (id -> Tuple.t -> bool) -> t -> bool
val exists : (id -> Tuple.t -> bool) -> t -> bool

(** {1 Predicates from the paper} *)

(** No two distinct identifiers carry equal tuples. *)
val is_duplicate_free : t -> bool

(** All weights are equal. *)
val is_unweighted : t -> bool

(** {1 Runners}

    Parallel work goes through a {!runner} — an executor for an array
    of independent thunks, returning their results in index order — so
    the algorithms can fan work out to a {!Repair_par.Pool} without this
    library depending on it. Every entry point that can fan out takes
    [?runner], defaulting to {!seq_runner}; at width 1 it runs exactly
    the sequential code. Wider runners give bit-identical results. *)

(** An executor for independent tasks; [run tasks] returns the results
    in task-index order and re-raises task exceptions deterministically
    (first failing index) — see {!Repair_par.Pool.runner}. [width] is
    the executor's natural fan-out (a pool's domain count), used as the
    chunk and shard count. *)
type runner = {
  run : 'a. (unit -> 'a) array -> 'a array;
  width : int;
}

(** Runs tasks inline, in index order; width 1. *)
val seq_runner : runner

(** [fold_budgeted runner budget f combine init xs] folds [combine]
    over [f b x] for each [x] of [xs], in list order. Inline — a width-1
    runner, a limited [budget], or fewer than two items — it is
    [List.fold_left (fun acc x -> combine acc (f budget x)) init xs].
    Otherwise each [f] runs as a [runner] task under a fresh unlimited
    budget; after the barrier, the tasks' steps are absorbed into
    [budget] and their results combined, in list order, so results and
    step totals equal the inline fold's. Limited budgets stay inline
    because their exhaustion point is observable. *)
val fold_budgeted :
  runner ->
  Repair_runtime.Budget.t ->
  (Repair_runtime.Budget.t -> 'a -> 'b) ->
  ('acc -> 'b -> 'acc) ->
  'acc ->
  'a list ->
  'acc

(** {1 Relational operations} *)

(** [select tbl p] keeps the rows satisfying [p]. *)
val select : t -> (id -> Tuple.t -> bool) -> t

(** [select_eq tbl x key] is [σ_{X=key} T]: the rows whose projection on [x]
    equals [key] (a tuple over the attributes of [x] in schema order). *)
val select_eq : t -> Attr_set.t -> Tuple.t -> t

(** [project_distinct tbl x] is [π_X T[*]]: the distinct projections of the
    tuples on [x]. *)
val project_distinct : t -> Attr_set.t -> Tuple.t list

(** [group_by ?runner ?chunk_sizes tbl x] partitions the table by the
    projection on [x], returning each distinct key with its subtable.
    The subtables keep the original identifiers and weights, so they
    are subsets of [tbl].

    The hash partition splits the rows into [runner.width] contiguous
    chunks, partitions each chunk as a runner task, and merges the
    chunks in order, which reconstitutes the one-chunk result exactly.
    [chunk_sizes] overrides the (deterministic, near-equal) chunk
    layout; sizes must sum to the visible row count.
    @raise Invalid_argument on a malformed [chunk_sizes]. *)
val group_by :
  ?runner:runner -> ?chunk_sizes:int array -> t -> Attr_set.t ->
  (Tuple.t * t) list

(** [restrict tbl ids] is the subset of [tbl] with the given identifiers
    (identifiers absent from [tbl] are ignored). *)
val restrict : t -> id list -> t

(** [remove tbl ids] deletes the given identifiers. *)
val remove : t -> id list -> t

(** [union t1 t2] merges tables with disjoint identifier sets.

    @raise Invalid_argument if an identifier occurs in both. *)
val union : t -> t -> t

(** [union_all schema ts] is [List.fold_left union (empty schema) ts],
    merged in pairwise rounds: O(n log k) for [k] operands and [n] rows,
    where the fold is O(k·n).

    @raise Invalid_argument if an identifier occurs in two operands. *)
val union_all : Schema.t -> t list -> t

(** [map_tuples tbl f] applies [f] to every tuple, keeping ids and weights:
    the result is an update of [tbl] in the paper's sense. *)
val map_tuples : t -> (id -> Tuple.t -> Tuple.t) -> t

(** [set_tuple tbl i tp] replaces the tuple at [i], keeping its weight.
    Every call copies the whole store (O(n)), so a loop that changes many
    tuples should collect its changes and apply them in one
    {!map_tuples}.
    @raise Not_found if [i ∉ ids(T)]. *)
val set_tuple : t -> id -> Tuple.t -> t

(** [map_weights tbl f] replaces each weight [w] by [f id w].
    @raise Invalid_argument if some new weight is not positive and
    finite. *)
val map_weights : t -> (id -> float -> float) -> t

(** {1 Repair-related distances (Section 2.3)} *)

(** [is_subset_of s tbl] holds iff [s] is a subset of [tbl]: same schema,
    [ids(S) ⊆ ids(T)], and matching tuples and weights. *)
val is_subset_of : t -> t -> bool

(** [is_update_of u tbl] holds iff [u] is an update of [tbl]: same schema,
    [ids(U) = ids(T)], and matching weights. *)
val is_update_of : t -> t -> bool

(** [dist_sub s tbl] is [dist_sub(S, T)]: the total weight of the tuples of
    [tbl] missing from [s].

    @raise Invalid_argument if [s] is not a subset of [tbl]. *)
val dist_sub : t -> t -> float

(** [dist_upd u tbl] is [dist_upd(U, T)]: the weighted Hamming distance.

    @raise Invalid_argument if [u] is not an update of [tbl]. *)
val dist_upd : t -> t -> float

(** [active_domain tbl a] is the set of values attribute [a] takes,
    de-duplicated and sorted. *)
val active_domain : t -> Schema.attribute -> Value.t list

(** All values occurring anywhere in the table. *)
val all_values : t -> Value.t list

(** {1 Display} *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Zero-copy view access}

    Positional access to a table's visible rows, bypassing id lookups.
    A table exposes its rows at positions [0 .. length tbl - 1] in
    increasing id order; positions are dense, so algorithms (e.g.
    conflict-graph construction) can use them directly as vertex
    indices without a side [Hashtbl]. *)
module View : sig
  (** Number of visible rows (equals {!Table.size}). *)
  val length : t -> int

  (** [id tbl k] / [tuple tbl k] / [weight tbl k] access the row at
      visible position [k] (0-based, id order). No bounds checks beyond
      the backing array's. *)
  val id : t -> int -> id

  val tuple : t -> int -> Tuple.t
  val weight : t -> int -> float

  (** All visible ids, in increasing order. *)
  val ids_array : t -> id array

  (** [of_positions tbl ps] is the sub-view of [tbl] keeping the rows at
      positions [ps].
      @raise Invalid_argument if [ps] is not strictly increasing or a
      position is out of range. *)
  val of_positions : t -> int array -> t

  (** [group_within ?runner tbl ps x] partitions the rows at positions
      [ps] by their projection on [x], returning position arrays: groups
      in first-seen order, members in input order. A single hash pass
      over the interned code columns — no keys or subtables are built —
      chunked over [runner] as in {!Table.group_by}. *)
  val group_within :
    ?runner:runner -> t -> int array -> Attr_set.t -> int array list

  (** [groups tbl x] is {!Table.group_by} without the subtables: each
      distinct key (sorted) paired with the visible positions of its
      rows (increasing). *)
  val groups : t -> Attr_set.t -> (Tuple.t * int array) list
end
