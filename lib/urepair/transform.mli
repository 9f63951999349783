(** The S↔U transformations of Proposition 4.4.

    (1) A consistent update [U] yields a consistent subset [S] with
    [dist_sub(S,T) ≤ dist_upd(U,T)]: drop every tuple touched by the
    update.

    (2) When Δ is consensus-free, a consistent subset [S] yields a
    consistent update [U] with [dist_upd(U,T) ≤ mlc(Δ) · dist_sub(S,T)]:
    keep surviving tuples intact and, in each deleted tuple, overwrite the
    attributes of a minimum lhs cover with fresh constants. *)

open Repair_relational
open Repair_fd

(** [subset_of_update ~table u] implements direction (1); it does not need
    Δ (dropping all touched tuples preserves consistency for any Δ).

    @raise Invalid_argument if [u] is not an update of [table]. *)
val subset_of_update : table:Table.t -> Table.t -> Table.t

(** [map_deleted ~table s f] is the update of [table] that keeps the
    tuples of [s] and replaces every other tuple [t] by [f t], calling
    [f] in id order. [s] must be a subset of [table] (unchecked): one
    pointer into [s] walks in step with [table], with no id lookups. *)
val map_deleted : table:Table.t -> Table.t -> (Tuple.t -> Tuple.t) -> Table.t

(** [update_of_subset ?cover d ~table s] implements direction (2); [cover]
    defaults to a minimum lhs cover of [d]. Deleted tuples receive their
    fresh constants in id order, starting above every fresh constant in
    [table] ({!Table.fresh_supply}).

    @raise Invalid_argument if [s] is not a subset of [table], [d] is not
    consensus-free, or [cover] misses some lhs. *)
val update_of_subset :
  ?cover:Attr_set.t -> Fd_set.t -> table:Table.t -> Table.t -> Table.t
