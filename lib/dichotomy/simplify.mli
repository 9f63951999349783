(** Algorithm 1's simplification step, and Algorithm 2 ([OSRSucceeds]):
    the dichotomy test.

    {!step} and {!partition} are the one definition of a simplification
    step. [Opt_s_repair] recurses on them over data, the stream session
    applies them to its top level, [Classify.certify] checks that none
    applies, and {!run} loops on them without data.

    Success or failure of [OptSRepair] depends only on Δ; {!run}
    simulates the simplification cases and records the trace, reproducing
    the derivations displayed in Example 3.5. By Theorem 3.4:

    - [Tractable]: an optimal S-repair is computable in PTIME;
    - [Hard]: the problem is APX-complete, even on unweighted,
      duplicate-free tables. *)

open Repair_relational
open Repair_fd

(** One simplification step of Algorithm 1. *)
type step =
  | Common_lhs of Attr_set.attribute
      (** Subroutine 1: [A] occurs in every lhs; Δ := Δ − A *)
  | Consensus of Fd.t
      (** Subroutine 2: the consensus FD [∅ → X]; Δ := Δ − X *)
  | Marriage of Attr_set.t * Attr_set.t
      (** Subroutine 3: the lhs marriage [(X1, X2)]; Δ := Δ − X1X2 *)

(** [step d] is the step that applies to a nontrivial [d]: common lhs
    first, then consensus, then lhs marriage. [None] is the hard side. *)
val step : Fd_set.t -> step option

(** [partition s] is the attribute set X the step partitions on; the
    blocks are solved under Δ − X. *)
val partition : step -> Attr_set.t

(** Each trace entry pairs the step applied with the FD set it produced
    (Δ − X with the FDs this made trivial removed). *)
type trace = (step * Fd_set.t) list

type outcome =
  | Tractable
  | Hard of Fd_set.t
      (** the fully-simplified, nontrivial FD set on which no rule applies *)

(** [run d] executes OSRSucceeds on [d] with its trivial FDs removed,
    returning the outcome and the full trace. Terminates in time
    polynomial in |Δ|. *)
val run : Fd_set.t -> outcome * trace

(** [succeeds d] is [true] iff [run d] is [Tractable]. *)
val succeeds : Fd_set.t -> bool

val pp_step : Format.formatter -> step -> unit

(** [pp_trace ppf (d0, trace)] renders the Example 3.5-style derivation
    of [run d0]: [{...} (common lhs) ⇛ {...} (consensus) ⇛ {}], led by a
    [(trivial: …)] line when [d0] has trivial FDs. *)
val pp_trace : Format.formatter -> Fd_set.t * trace -> unit
