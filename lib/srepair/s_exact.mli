(** Exact optimal S-repairs for {e any} FD set, via minimum-weight vertex
    cover of the conflict graph. Exponential worst case — this is the
    optimality baseline used to validate {!Opt_s_repair} and to measure the
    quality of {!S_approx} on small instances of APX-hard FD sets.

    All entry points poll an optional {!Repair_runtime.Budget} inside their
    exponential loops and raise
    {!Repair_runtime.Repair_error.Budget_exhausted} when it runs out. *)

open Repair_relational
open Repair_fd

(** The method name the driver reports for a run of {!optimal}. *)
val method_name : string

(** The largest hard-side table (in rows) that the driver's automatic
    ladder hands to {!optimal}; larger ones go to {!S_approx.approx2}. *)
val size_limit : int

(** [optimal ?budget d tbl] is an optimal S-repair of [tbl] under [d]. *)
val optimal : ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t

(** [distance ?budget d tbl] is [dist_sub(S*, T)]. *)
val distance : ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> float

(** [brute_force ?budget d tbl] enumerates all 2^|T| subsets — the
    ground-truth of ground truths, for tables of at most ~20 tuples. *)
val brute_force :
  ?budget:Repair_runtime.Budget.t -> Fd_set.t -> Table.t -> Table.t
