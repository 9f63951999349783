(** Dirtiness estimation — the paper's second motivation (Section 1): in
    iterative, human-in-the-loop cleaning, the cost of an optimal repair
    estimates how dirty the database is and how much work cleaning will
    take.

    On the tractable side of the dichotomies the estimates are exact; on
    the hard side they are certified intervals: the 2-approximation gives
    [approx/2 ≤ opt ≤ approx] for deletions (Proposition 3.3), and the
    per-component certified ratio does the same for updates
    (Theorem 4.12), sharpened from below by Corollary 4.5
    (dist_upd ≥ dist_sub). *)

open Repair_relational
open Repair_fd

type estimate = {
  conflicts : int;
      (** number of violating tuple pairs, each counted once however many
          FDs it violates: the edges of the conflict graph *)
  deletions_lower : float;
  deletions_upper : float;  (** bounds on the optimal S-repair distance *)
  deletions_exact : bool;
  updates_lower : float;
  updates_upper : float;  (** bounds on the optimal U-repair distance *)
  updates_exact : bool;
}

(** [estimate d tbl] computes the bounds; polynomial time always. *)
val estimate : Fd_set.t -> Table.t -> estimate

(** [fraction_dirty e tbl] is [deletions_upper / total weight]: the upper
    bound on the fraction of (weighted) data that must go. *)
val fraction_dirty : estimate -> Table.t -> float

val pp : Format.formatter -> estimate -> unit
