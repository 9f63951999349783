open Repair_relational
open Repair_fd
open Repair_runtime

let optimal ?(budget = Budget.unlimited ()) ?(fresh = 3) ?(max_cells = 24) d tbl =
  Repair_obs.Metrics.with_span "u-exact" @@ fun () ->
  let schema = Table.schema tbl in
  let arity = Schema.arity schema in
  let ids = Array.of_list (Table.ids tbl) in
  let n = Array.length ids in
  let n_cells = n * arity in
  if n_cells > max_cells then
    Repair_error.raise_error
      (Size_limit
         { what = "U_exact.optimal"; limit = max_cells; actual = n_cells });
  let d = Fd_set.remove_trivial d in
  if Fd_set.satisfied_by d tbl then tbl
  else begin
    let supply = Table.fresh_supply tbl in
    let fresh_pool = List.init fresh (fun _ -> Value.Supply.next supply) in
    let candidates =
      Array.init arity (fun j ->
          Table.active_domain tbl (Schema.attribute_at schema j) @ fresh_pool)
    in
    let cells =
      Array.init n_cells (fun c -> (ids.(c / arity), c mod arity))
    in
    let min_weight =
      Table.fold (fun _ _ w acc -> min acc w) tbl infinity
    in
    let best = ref None in
    let best_cost = ref infinity in
    (* Choose [k] cells (indices ascending) and values for them; evaluate
       consistency at the leaves, pruning on accumulated cost. *)
    let rec assign u cost start k =
      Budget.tick ~phase:"u-exact" budget;
      if cost >= !best_cost then ()
      else if k = 0 then begin
        if Fd_set.satisfied_by d u then begin
          best := Some u;
          best_cost := cost
        end
      end
      else
        for c = start to n_cells - k do
          let id, j = cells.(c) in
          let original = Tuple.get (Table.tuple tbl id) j in
          let w = Table.weight tbl id in
          List.iter
            (fun v ->
              if not (Value.equal v original) then
                assign
                  (Table.set_tuple u id (Tuple.set (Table.tuple u id) j v))
                  (cost +. w) (c + 1) (k - 1))
            candidates.(j)
        done
    in
    let k = ref 1 in
    let continue = ref true in
    while !continue do
      assign tbl 0.0 0 !k;
      (* A solution changing more than k cells costs at least
         (k+1)·min_weight; stop as soon as that cannot improve. *)
      if
        !k >= n_cells
        || (!best <> None
            && float_of_int (!k + 1) *. min_weight >= !best_cost)
      then continue := false
      else incr k
    done;
    match !best with
    | Some u -> u
    | None ->
      (* Unreachable: replacing every cell with distinct fresh constants is
         consistent for any consensus-free set, and consensus FDs are
         satisfiable by equating columns — the search space always contains
         a consistent update. *)
      assert false
  end

let distance ?budget ?fresh ?max_cells d tbl =
  Table.dist_upd (optimal ?budget ?fresh ?max_cells d tbl) tbl
