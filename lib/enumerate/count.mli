(** Counting optimal S-repairs in polynomial time.

    Livshits and Kimelfeld (PODS'17, the paper's reference [26]) showed
    that {e chain} FD sets are exactly the sets whose subset repairs can be
    counted in polynomial time. Here we count {e optimal} S-repairs with
    {!Repair_srepair.Opt_s_repair.fold}, Algorithm 1's own fold,
    carrying (weight, count) pairs: the common-lhs case multiplies block
    counts, and the consensus case sums the counts of the maximum-weight
    blocks. The lhs-marriage case would require counting maximum-weight
    bipartite matchings (#P-hard in general), so it is refused — chain FD
    sets never need it (Corollary 3.6).

    Refusal depends on Δ only, never on the table: it is read off the
    simplification chain of {!Repair_dichotomy.Simplify.run} before any
    data is touched, so an empty table is refused exactly when a
    non-empty one is. *)

open Repair_relational
open Repair_fd

(** [optimal_s_repairs d tbl] is the number of distinct optimal S-repairs
    (as identifier sets), saturating at [max_int] — counts grow
    exponentially with the number of independent ties. [Error d'] when
    the simplification chain of [d] needs an lhs marriage ([d'] is the FD
    set that step applies to) or gets stuck ([d'] is the stuck set). *)
val optimal_s_repairs : Fd_set.t -> Table.t -> (int, Fd_set.t) result

(** [optimal_s_repairs_exn d tbl] raises [Failure] instead. *)
val optimal_s_repairs_exn : Fd_set.t -> Table.t -> int

(** [optimal_weight_and_count d tbl] also returns the weight kept by an
    optimal S-repair — cross-checkable against
    {!Repair_srepair.Opt_s_repair.distance}. *)
val optimal_weight_and_count :
  Fd_set.t -> Table.t -> (float * int, Fd_set.t) result
