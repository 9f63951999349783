open Repair_relational
open Repair_fd

(* Replace the tuples of the ids bound in [changes] with one store copy
   for the whole batch ([Table.set_tuple] would copy it once per tuple). *)
let apply changes tbl =
  if Hashtbl.length changes = 0 then tbl
  else
    Table.map_tuples tbl (fun i t ->
        Option.value (Hashtbl.find_opt changes i) ~default:t)

(* One sweep: for each FD X → Y and each X-group, overwrite every tuple's
   Y-projection with the group's weighted-majority Y-projection. A sweep
   resolves each FD in isolation; sweeps are iterated because fixing one
   FD's rhs can re-group another's lhs. The X-groups of one FD are
   disjoint and each vote reads only its own group, so an FD's pass
   collects its changes and applies them at once. *)
let vote_sweep d tbl =
  let schema = Table.schema tbl in
  List.fold_left
    (fun tbl fd ->
      let rhs_attrs =
        Schema.indices_of schema (Fd.rhs fd)
        |> List.map (Schema.attribute_at schema)
      in
      let changes = Hashtbl.create 64 in
      List.iter
        (fun (_, sub) ->
          let totals = Hashtbl.create 8 in
          Table.iter
            (fun _ t w ->
              let key = Tuple.project schema t (Fd.rhs fd) in
              let prev = Option.value (Hashtbl.find_opt totals key) ~default:0.0 in
              Hashtbl.replace totals key (prev +. w))
            sub;
          let majority =
            Hashtbl.fold
              (fun key w best ->
                match best with
                | Some (_, bw) when bw >= w -> best
                | _ -> Some (key, w))
              totals None
          in
          match majority with
          | None -> ()
          | Some (rhs_values, _) ->
            Table.iter
              (fun i t _ ->
                let t' =
                  List.fold_left2
                    (fun acc a v -> Tuple.set_attr schema acc a v)
                    t rhs_attrs (Tuple.values rhs_values)
                in
                if not (Tuple.equal t t') then Hashtbl.replace changes i t')
              sub)
        (Table.group_by tbl (Fd.lhs fd));
      apply changes tbl)
    tbl
    (Fd_set.to_list d)

(* Fallback: give every tuple still involved in a violation a fresh
   constant on a minimum lhs cover — afterwards it shares no lhs with
   anything, so all violations involving it vanish. Constants are handed
   out in ascending-id order. *)
let isolate_violators d tbl =
  let violators =
    Fd_set.violations d tbl
    |> List.concat_map (fun (i, j, _) -> [ i; j ])
    |> List.sort_uniq compare
  in
  if violators = [] then tbl
  else begin
    let schema = Table.schema tbl in
    let cover = Lhs_analysis.lhs_cover d in
    let supply = Value.Supply.starting_above (Table.all_values tbl) in
    let changes = Hashtbl.create (List.length violators) in
    List.iter
      (fun i ->
        let fresh = Value.Supply.next supply in
        Hashtbl.replace changes i
          (Attr_set.fold
             (fun a acc -> Tuple.set_attr schema acc a fresh)
             cover (Table.tuple tbl i)))
      violators;
    apply changes tbl
  end

let local_repair ?(max_rounds = 4) d tbl =
  let d = Fd_set.normalize d in
  if Fd_set.is_empty d then tbl
  else begin
    if not (Fd_set.is_consensus_free d) then
      invalid_arg "U_heuristic.local_repair: consensus attributes present";
    let rec rounds n tbl =
      if n = 0 || Fd_set.satisfied_by d tbl then tbl
      else rounds (n - 1) (vote_sweep d tbl)
    in
    let swept = rounds max_rounds tbl in
    let result = isolate_violators d swept in
    assert (Fd_set.satisfied_by d result);
    result
  end
