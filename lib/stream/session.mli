(** A delta-driven repair maintainer (DESIGN §16).

    [create d base] classifies Δ once: trivial, polynomial
    ({!Repair_dichotomy.Simplify.step} finds the first simplification,
    whose {!Repair_dichotomy.Simplify.partition} attribute set splits the
    table into blocks that never interact, so locality is sound), or
    hard (no decomposition exists). [tick] applies one {!Delta.t} at
    O(affected-group) cost: inserts extend the store tip, deletes
    tombstone a position, and on the polynomial side exactly the touched
    block is marked dirty — re-solved lazily at the next [summary], every
    clean block served from a cache keyed by the block's member ids.
    There, [summary] replays the blocks' captured metrics and budget
    steps in block order and recombines their repairs with
    {!Repair_srepair.Opt_s_repair.combine}, the function a batch run
    uses. Trivial and hard sessions keep no solver state: their
    [summary] runs, on {!materialized}, the solver the driver's Auto
    ladder picks for Δ — {!Repair_srepair.Opt_s_repair.run} for a
    trivial Δ; on the hard side {!Repair_srepair.S_exact.optimal} up to
    {!Repair_srepair.S_exact.size_limit} rows and
    {!Repair_srepair.S_approx.approx2} above. Either way the report is
    byte-identical — result table, distance, method, and integer metrics
    modulo the [stream.*] counters — to a from-scratch driver run on
    {!materialized}.

    Metrics caveat: a block result captures its metrics when it is
    first solved (at some summary), so the identity contract requires
    metrics to be enabled consistently across summaries, not only at
    the one being compared (the serving daemon always has them
    enabled). *)

open Repair_relational
open Repair_fd

type t

val default_cache_capacity : int

(** [create ?cache_capacity d base] — copies [base] (O(n)) into a store
    the session owns the tip of. [cache_capacity] bounds the LRU block
    cache (counters [stream.block-cache.*]). *)
val create : ?cache_capacity:int -> Fd_set.t -> Table.t -> t

(** [tick t delta] applies one delta. O(affected-group).
    @raise Repair_runtime.Repair_error.Error
      ([Parse]) on arity mismatch, a weight that is not positive and
      finite (NaN included), an insert id not above every id seen, or a
      delete of an unknown id. A rejected tick leaves the session state
      unchanged. *)
val tick : t -> Delta.t -> unit

(** The current table: base plus inserts, minus tombstoned deletes.
    O(n) when deletes exist; the tombstones are applied here, never per
    tick. *)
val materialized : t -> Table.t

type report = {
  result : Table.t;
  distance : float;
  optimal : bool;
  ratio : float;
  method_used : string;
}

(** [summary t] — the refreshed repair, byte-identical to a cold driver
    run on {!materialized} (which always reports [degraded = false] and
    no fallbacks here: sessions solve under unlimited budgets). *)
val summary : t -> report

val fds : t -> Fd_set.t
val schema : t -> Schema.t

(** Live row count (inserts applied, tombstones excluded). *)
val size : t -> int

(** Session counters: accepted ([ticks] = [inserts] + [deletes]) and
    refused ([rejects]) deltas, summaries, live rows, and the polynomial
    mode's blocks and block cache. A trivial or hard session keeps no
    solver state, so its [blocks] is 0 and its cache stays empty. *)
type stats = {
  ticks : int;
  inserts : int;
  deletes : int;
  rejects : int;
  summaries : int;
  live : int;
  blocks : int; (* live blocks; 0 outside the polynomial mode *)
  cache : Repair_serve.Cache.stats;
}

val stats : t -> stats
