open Repair_relational
open Repair_fd

type outcome = { result : Table.t; deleted : Table.id list; cost : float }

(* Per-tuple local moves: keep, delete, or update a subset of cells. The
   solver iteratively deepens on the total number of operations (a deletion
   and a single-cell update each count as one operation). *)
let optimal ?(delete_factor = 1.0) ?(fresh = 2) ?(max_cells = 21) d tbl =
  let schema = Table.schema tbl in
  let arity = Schema.arity schema in
  let ids = Array.of_list (Table.ids tbl) in
  let n = Array.length ids in
  if n * arity > max_cells then
    invalid_arg "Mixed_exact.optimal: table too large for exhaustive search";
  let d = Fd_set.remove_trivial d in
  let supply = Table.fresh_supply tbl in
  let fresh_pool = List.init fresh (fun _ -> Value.Supply.next supply) in
  let candidates =
    Array.init arity (fun j ->
        Table.active_domain tbl (Schema.attribute_at schema j) @ fresh_pool)
  in
  (* All update variants of one tuple using at most [budget] cell changes,
     as (ops, tuple) pairs; the unchanged tuple is (0, t). *)
  let tuple_variants t budget =
    let rec extend acc changed j =
      if j = arity then [ (changed, acc) ]
      else
        let keep = extend acc changed (j + 1) in
        if changed >= budget then keep
        else
          let original = Tuple.get t j in
          List.fold_left
            (fun variants v ->
              if Value.equal v original then variants
              else
                extend (Tuple.set acc j v) (changed + 1) (j + 1) @ variants)
            keep candidates.(j)
    in
    extend t 0 0
  in
  let best = ref None in
  let best_cost = ref infinity in
  let min_op_cost =
    Table.fold
      (fun _ _ w acc -> min acc (min w (delete_factor *. w)))
      tbl infinity
  in
  (* [go idx budget cost kept deleted]: decide tuple ids.(idx). [kept] holds
     (id, tuple) survivors so far, newest first. *)
  let rec go idx budget cost kept deleted =
    if cost >= !best_cost then ()
    else if idx = n then begin
      let survivors =
        List.fold_left
          (fun acc (i, t) ->
            Table.add ~id:i ~weight:(Table.weight tbl i) acc t)
          (Table.empty schema) kept
      in
      if Fd_set.satisfied_by d survivors then begin
        best := Some (survivors, List.rev deleted);
        best_cost := cost
      end
    end
    else begin
      let i = ids.(idx) in
      let w = Table.weight tbl i in
      let t = Table.tuple tbl i in
      (* keep / update *)
      List.iter
        (fun (ops, t') ->
          if ops <= budget then
            go (idx + 1) (budget - ops)
              (cost +. (float_of_int ops *. w))
              ((i, t') :: kept) deleted)
        (tuple_variants t budget);
      (* delete *)
      if budget >= 1 then
        go (idx + 1) (budget - 1)
          (cost +. (delete_factor *. w))
          kept (i :: deleted)
    end
  in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    go 0 !k 0.0 [] [];
    if
      !k >= n * arity
      || (!best <> None && float_of_int (!k + 1) *. min_op_cost >= !best_cost)
    then continue := false
    else incr k
  done;
  match !best with
  | Some (result, deleted) -> { result; deleted; cost = !best_cost }
  | None ->
    (* Deleting everything is always consistent, so the search space always
       contains a repair once the budget reaches n. *)
    assert false

let cost ?delete_factor ?fresh ?max_cells d tbl =
  (optimal ?delete_factor ?fresh ?max_cells d tbl).cost
