(** A local-repair heuristic for updates, in the spirit of
    Kolahi–Lakshmanan's algorithm: resolve each violated FD group by
    voting, falling back on fresh lhs values for stragglers.

    No approximation ratio is claimed (the paper only compares the
    {e ratios} of the two published algorithms); the value of the
    heuristic is practical — {!Repair_urepair.U_approx.best} runs it next
    to the certified algorithm and keeps the cheaper update, exactly the
    "combine the two and take the best" closing remark of Section 4.4. *)

open Repair_relational
open Repair_fd

(** [local_repair ?max_rounds d tbl] always returns a consistent update:
    up to [max_rounds] (default 4) voting sweeps — per FD and lhs group,
    every tuple adopts the group's weighted-majority rhs values — then, if
    violations persist (FD interactions can oscillate), the remaining
    violators get fresh constants on a minimum lhs cover, in ascending-id
    order.

    For n tuples, a round costs O(|Δ|·n log n): per FD one lhs grouping,
    one hash vote per group, and one {!Table.map_tuples} for the tuples
    that change, plus the satisfaction check. The isolation pass adds the
    cost of {!Fd_set.violations}.

    @raise Invalid_argument if Δ is not consensus-free (eliminate
    consensus attributes first, as {!U_approx.best} does). *)
val local_repair : ?max_rounds:int -> Fd_set.t -> Table.t -> Table.t
