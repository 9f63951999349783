module Iset = Set.Make (Int)
module Metrics = Repair_obs.Metrics

let is_cover g vs =
  let s = Iset.of_list vs in
  Graph.fold_edges
    (fun (u, v) ok -> ok && (Iset.mem u s || Iset.mem v s))
    g true

let cover_weight g vs =
  Iset.fold (fun v acc -> acc +. Graph.weight g v) (Iset.of_list vs) 0.0

(* Bar-Yehuda–Even local ratio: scan the edges once; for each edge still
   uncovered, pay ε = min of the residual weights of its endpoints on both
   endpoints. Vertices whose residual reaches zero enter the cover. The
   total payment is a lower bound on OPT and the cover costs at most twice
   the payment. *)
let approx2 g =
  Metrics.with_span "vertex-cover.approx2" @@ fun () ->
  let n = Graph.n_vertices g in
  let residual = Array.init n (Graph.weight g) in
  let in_cover = Array.make n false in
  let payments = ref 0 in
  Graph.fold_edges
    (fun (u, v) () ->
      if not (in_cover.(u) || in_cover.(v)) then begin
        incr payments;
        let eps = min residual.(u) residual.(v) in
        residual.(u) <- residual.(u) -. eps;
        residual.(v) <- residual.(v) -. eps;
        if residual.(u) <= 0.0 then in_cover.(u) <- true;
        if residual.(v) <= 0.0 then in_cover.(v) <- true
      end)
    g ();
  Metrics.incr ~by:!payments "vertex-cover.local-ratio-payments";
  let cover = ref [] in
  for v = n - 1 downto 0 do
    if in_cover.(v) then cover := v :: !cover
  done;
  !cover

(* Greedy set-cover heuristic, incremental form: [gain.(v)] counts the
   uncovered edges incident to [v] (initially the degree). Choosing a
   vertex covers exactly its [gain] edges, and only the gains of its
   not-yet-chosen neighbours change — so each iteration is one O(n)
   argmax scan plus O(deg) updates instead of an O(E) rescan of every
   edge. The scan order and strict improvement test match the previous
   implementation, so the chosen cover is identical. *)
let greedy g =
  let n = Graph.n_vertices g in
  let gain = Array.init n (Graph.degree g) in
  let chosen = Array.make n false in
  let uncovered = ref (Graph.n_edges g) in
  let cover = ref Iset.empty in
  while !uncovered > 0 do
    (* Pick the vertex covering the most uncovered edges per unit
       weight. *)
    let best = ref (-1) and best_score = ref neg_infinity in
    for v = 0 to n - 1 do
      if gain.(v) > 0 then begin
        let score = float_of_int gain.(v) /. Graph.weight g v in
        if score > !best_score then begin
          best := v;
          best_score := score
        end
      end
    done;
    let b = !best in
    uncovered := !uncovered - gain.(b);
    gain.(b) <- 0;
    chosen.(b) <- true;
    cover := Iset.add b !cover;
    List.iter
      (fun u -> if not chosen.(u) then gain.(u) <- gain.(u) - 1)
      (Graph.neighbours g b)
  done;
  Iset.elements !cover

(* Lower bound for branch and bound: a greedy matching on the uncovered
   edges; any cover pays at least min(w(u), w(v)) per matching edge, and the
   matched edges are disjoint. *)
let matching_bound_on g uncovered =
  let used = ref Iset.empty in
  List.fold_left
    (fun acc (u, v) ->
      if Iset.mem u !used || Iset.mem v !used then acc
      else begin
        used := Iset.add u (Iset.add v !used);
        acc +. min (Graph.weight g u) (Graph.weight g v)
      end)
    0.0 uncovered

let matching_lower_bound g = matching_bound_on g (Graph.edges g)

(* LP relaxation via the bipartite double cover: node u splits into u'
   (left, index u) and u'' (right, index n+u); every edge {u,v} becomes
   u'-v'' and v'-u''. A minimum-weight vertex cover of the double cover is
   a minimum s-t cut, and half its weight is exactly the LP optimum of the
   original instance (half-integrality). *)
let lp_lower_bound g =
  let n = Graph.n_vertices g in
  if Graph.n_edges g = 0 then 0.0
  else begin
    let source = 2 * n and sink = (2 * n) + 1 in
    let net = Max_flow.create ((2 * n) + 2) in
    for u = 0 to n - 1 do
      Max_flow.add_edge net source u (Graph.weight g u);
      Max_flow.add_edge net (n + u) sink (Graph.weight g u)
    done;
    Graph.fold_edges
      (fun (u, v) () ->
        Max_flow.add_edge net u (n + v) infinity;
        Max_flow.add_edge net v (n + u) infinity)
      g ();
    Max_flow.max_flow net ~source ~sink /. 2.0
  end

let exact ?(budget = Repair_runtime.Budget.unlimited ()) ?(matching_bound = true)
    g =
  Metrics.with_span "vertex-cover.exact" @@ fun () ->
  let all_edges = Graph.edges g in
  let best_cover = ref (Iset.of_list (approx2 g)) in
  let best_weight = ref (cover_weight g (Iset.elements !best_cover)) in
  let greedy_start = greedy g in
  let greedy_weight = cover_weight g greedy_start in
  if greedy_weight < !best_weight then begin
    best_cover := Iset.of_list greedy_start;
    best_weight := greedy_weight
  end;
  let rec branch chosen chosen_weight =
    Repair_runtime.Budget.tick ~phase:"vertex-cover" budget;
    let uncovered =
      List.filter
        (fun (u, v) -> not (Iset.mem u chosen || Iset.mem v chosen))
        all_edges
    in
    match uncovered with
    | [] ->
      if chosen_weight < !best_weight then begin
        best_cover := chosen;
        best_weight := chosen_weight;
        Repair_obs.Trace.instant "vertex-cover.incumbent"
      end
    | _ ->
      let bound =
        if matching_bound then
          chosen_weight +. matching_bound_on g uncovered
        else chosen_weight
      in
      if bound < !best_weight then begin
        (* Branch on an uncovered edge whose endpoints are heaviest: it
           tends to produce tighter early bounds. *)
        let u, v =
          List.fold_left
            (fun ((bu, bv) as bbest) ((cu, cv) as cand) ->
              let wb = Graph.weight g bu +. Graph.weight g bv in
              let wc = Graph.weight g cu +. Graph.weight g cv in
              if wc > wb then cand else bbest)
            (List.hd uncovered) (List.tl uncovered)
        in
        branch (Iset.add u chosen) (chosen_weight +. Graph.weight g u);
        branch (Iset.add v chosen) (chosen_weight +. Graph.weight g v)
      end
  in
  branch Iset.empty 0.0;
  Iset.elements !best_cover
