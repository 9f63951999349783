open Repair_relational
open Repair_fd

let subset_of_update ~table u =
  if not (Table.is_update_of u table) then
    invalid_arg "Transform.subset_of_update: not an update";
  let untouched =
    Table.fold
      (fun i t _ acc ->
        if Tuple.equal t (Table.tuple u i) then i :: acc else acc)
      table []
  in
  Table.restrict table untouched

(* [s] is a subset of [table], and both list their rows in id order, so
   one pointer into [s] moving in step with [table]'s positions tells
   whether each row survived. *)
let map_deleted ~table s f =
  let m = Table.size s and j = ref 0 in
  Table.View.map table (fun k t ->
      if !j < m && Table.View.id s !j = Table.View.id table k then begin
        incr j;
        t
      end
      else f t)

let update_of_subset ?cover d ~table s =
  if not (Table.is_subset_of s table) then
    invalid_arg "Transform.update_of_subset: not a subset";
  let d = Fd_set.remove_trivial d in
  if not (Fd_set.is_consensus_free d) then
    invalid_arg "Transform.update_of_subset: FD set has consensus attributes";
  let cover =
    match cover with
    | Some c ->
      List.iter
        (fun fd ->
          if Attr_set.disjoint (Fd.lhs fd) c then
            invalid_arg "Transform.update_of_subset: cover misses an lhs")
        (Fd_set.to_list d);
      c
    | None -> if Fd_set.is_empty d then Attr_set.empty else Lhs_analysis.lhs_cover d
  in
  let cols = Schema.indices_of (Table.schema table) cover in
  let supply = Table.fresh_supply table in
  map_deleted ~table s (fun t ->
      (* One fresh constant per deleted tuple, in id order, written into
         every cover attribute: the tuple can no longer agree with
         anything on any lhs. *)
      let fresh = Value.Supply.next supply in
      List.fold_left (fun t c -> Tuple.set t c fresh) t cols)
