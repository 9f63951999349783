(** The Auto ladder and the strategy vocabulary, declared once. Every
    front end (CLI, batch, serve, stream summaries off the polynomial
    side, cleaning's [auto_finish]) asks this module for its repair:
    OptSRepair when OSRSucceeds holds (Algorithm 1, Theorem 3.4), exact
    search on small instances, else Prop. 3.3's 2-approximation or
    Theorem 4.12's certified U-approximation, degrading along
    poly → exact → approx when a budget runs out. *)

open Repair_relational
open Repair_fd

type strategy =
  | Auto  (** poly if tractable, exact if small, else approximate *)
  | Poly  (** insist on the paper's polynomial algorithm *)
  | Exact  (** insist on the exponential baseline *)
  | Approximate  (** insist on the certified approximation *)

(** The names manifests, serve requests and [--strategy] use:
    ["auto"], ["poly"], ["exact"], ["approx"]. *)
val strategies : (string * strategy) list

(** Budget-exhaustion policy. [`Degrade] (the default) walks down the
    degradation ladder — the exact or polynomial solver that ran out of
    budget is replaced by the certified polynomial approximation, which
    runs unbudgeted, so a repair is always produced. [`Fail] surfaces the
    {!Repair_runtime.Repair_error.Budget_exhausted} error instead. *)
type on_budget = [ `Degrade | `Fail ]

type report = {
  result : Table.t;
  distance : float;
  optimal : bool;  (** distance is provably minimal *)
  ratio : float;  (** certified bound; 1.0 when optimal *)
  method_used : string;
  degraded : bool;
      (** a budget/fault forced a fallback below the requested rung *)
  fallbacks : string list;
      (** the fallback edges that fired, in firing order; empty unless
          [degraded] *)
}

(** [parse_fds ~source text] is {!Repair_fd.Fd_set.parse} with a
    malformed FD set reported as a structured error.
    @raise Repair_runtime.Repair_error.Error ([Parse], under [source]). *)
val parse_fds : source:string -> string -> Fd_set.t

(** [validate d tbl] is the check every entry point runs first.
    @raise Repair_runtime.Repair_error.Error [Schema_mismatch] when Δ
    names an attribute that is not a column of [tbl], and [Parse] (source
    ["<table>"]) when the largest S-repair distance, the total weight, is
    not finite. {!u_repair} bounds the total weight × arity instead. *)
val validate : Fd_set.t -> Table.t -> unit

(** [s_repair ?pool ?strategy ?budget ?on_budget d tbl] computes a
    subset repair. It {!validate}s the input, then runs the rung
    [strategy] picks. The [budget] (default unlimited) is polled
    cooperatively inside the solvers' hot loops; on exhaustion the
    driver degrades or fails per [on_budget]. With [pool], the poly rung
    passes the pool's runner to {!Repair_srepair.Opt_s_repair.run} and
    the approximation rung passes it to
    {!Repair_srepair.S_approx.approx2} — the report (distance, method,
    degraded flag, fallbacks) is bit-identical either way.

    The exact rung refuses tables of more than
    {!Repair_srepair.S_exact.size_limit} rows with [Size_limit], whether
    [Exact] was asked for or Auto chose it; under [`Degrade] the
    approximation then runs and the fallback is recorded.

    @raise Repair_runtime.Repair_error.Error with the error
    {!s_repair_result} returns: [Intractable] if [Poly] was requested on
    the APX-hard side, [Budget_exhausted] or [Size_limit] under [`Fail],
    and the {!validate} errors. *)
val s_repair :
  ?pool:Repair_par.Pool.t ->
  ?strategy:strategy ->
  ?budget:Repair_runtime.Budget.t ->
  ?on_budget:on_budget ->
  Fd_set.t ->
  Table.t ->
  report

(** [s_repair_result] is {!s_repair} with every failure returned as a
    structured {!Repair_runtime.Repair_error.t} instead of raised. *)
val s_repair_result :
  ?pool:Repair_par.Pool.t ->
  ?strategy:strategy ->
  ?budget:Repair_runtime.Budget.t ->
  ?on_budget:on_budget ->
  Fd_set.t ->
  Table.t ->
  (report, Repair_runtime.Repair_error.t) result

(** [u_repair ?pool ?strategy ?budget ?on_budget d tbl] computes an
    update repair; validation, budget and degradation semantics as in
    {!s_repair}. With [pool], the poly rung solves Theorem 4.1's
    attribute-disjoint components as pool tasks (the runner passed to
    {!Repair_urepair.Opt_u_repair.solve}) — again bit-identical. *)
val u_repair :
  ?pool:Repair_par.Pool.t ->
  ?strategy:strategy ->
  ?budget:Repair_runtime.Budget.t ->
  ?on_budget:on_budget ->
  Fd_set.t ->
  Table.t ->
  report

val u_repair_result :
  ?pool:Repair_par.Pool.t ->
  ?strategy:strategy ->
  ?budget:Repair_runtime.Budget.t ->
  ?on_budget:on_budget ->
  Fd_set.t ->
  Table.t ->
  (report, Repair_runtime.Repair_error.t) result

(** [s_repair_database ?strategy ?budget ?on_budget constraints db]
    repairs every relation of a multi-relation database by deletions —
    FDs never span relations, so per-relation repairs compose (paper,
    Section 1). [constraints] maps relation names to their FD sets
    (missing names mean no constraints). A shared [budget] bounds the
    whole pass. Returns the repaired database and the total deleted
    weight. *)
val s_repair_database :
  ?strategy:strategy ->
  ?budget:Repair_runtime.Budget.t ->
  ?on_budget:on_budget ->
  (string * Fd_set.t) list ->
  Database.t ->
  Database.t * float

(** [describe d] is a human-readable complexity report for Δ: the
    OSRSucceeds trace or the hardness certificate, U-repair
    tractability, and the approximation ratios of Theorems 4.12/4.13. *)
val describe : Fd_set.t -> string
