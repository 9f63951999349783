open Repair_relational
open Repair_fd
open Repair_runtime
module Metrics = Repair_obs.Metrics
module Simplify = Repair_dichotomy.Simplify

exception Stuck of Fd_set.t

let method_name = "OptSRepair (Algorithm 1)"

let phase = "opt-s-repair"

let span_name = function
  | Simplify.Common_lhs _ -> "common-lhs"
  | Consensus _ -> "consensus"
  | Marriage _ -> "marriage"

(* ---------- the subroutines' choices ---------- *)

(* Consensus ∅ → X: every consistent subset lies within a single
   X-block, so the heaviest block repair wins, and on a tie the first
   in key order (the order Table.group_by lists blocks in). [heavier]
   is that rule for two blocks: does [c], of weight [wc], beat [b], of
   weight [wb]? The keys are read only on a tie. *)
let heavier ~key c b wc wb =
  wc > wb || (wc = wb && Tuple.compare (key c) (key b) < 0)

(* Lhs marriage (X1, X2): within the consistent result, the X1-value of
   a tuple determines its X2-value and vice versa (their closures
   coincide), so the kept (a1, a2) combinations form a matching between
   the X1- and X2-projections; keep the maximum-weight one. [blocks]
   are (X1-key, X2-key, weight) in key order; each side is numbered in
   order of first appearance. The result is the indices of the matched
   blocks, in matching order. *)
let matched blocks =
  let module Tmap = Map.Make (struct
    type t = Tuple.t

    let compare = Tuple.compare
  end) in
  let number side =
    List.fold_left
      (fun (next, m) key ->
        if Tmap.mem key m then (next, m) else (next + 1, Tmap.add key next m))
      (0, Tmap.empty) side
    |> snd
  in
  let v1 = number (List.map (fun (a1, _, _) -> a1) blocks) in
  let v2 = number (List.map (fun (_, a2, _) -> a2) blocks) in
  let weights = Array.make_matrix (Tmap.cardinal v1) (Tmap.cardinal v2) 0.0 in
  let block_of = Hashtbl.create 16 in
  List.iteri
    (fun k (a1, a2, w) ->
      let i = Tmap.find a1 v1 and j = Tmap.find a2 v2 in
      weights.(i).(j) <- w;
      Hashtbl.replace block_of (i, j) k)
    blocks;
  let pairs, _ = Repair_graph.Bipartite_matching.solve weights in
  List.filter_map (Hashtbl.find_opt block_of) pairs

(* Common lhs keeps every block: blocks never interact, because a
   violation within the result would have to agree on the shared
   attribute. *)
let combine schema step blocks =
  let project x (t, _) = Tuple.project schema t x in
  match step with
  | Simplify.Common_lhs _ -> Table.union_all schema (List.map snd blocks)
  | Consensus fd -> (
    let key = project (Fd.rhs fd) and weight (_, s) = Table.total_weight s in
    match blocks with
    | [] -> Table.empty schema
    | first :: rest ->
      List.fold_left
        (fun best c ->
          if heavier ~key c best (weight c) (weight best) then c else best)
        first rest
      |> snd)
  | Marriage (x1, x2) ->
    let repairs = Array.of_list (List.map snd blocks) in
    List.map
      (fun b -> (project x1 b, project x2 b, Table.total_weight (snd b)))
      blocks
    |> matched
    |> List.map (fun k -> repairs.(k))
    |> Table.union_all schema

(* ---------- the plan executor ----------

   Which step Algorithm 1 takes depends on Δ only (Theorem 3.4), so
   every block at one depth takes the same step: the trace of
   [Simplify.run] on a block's residual Δ is its plan. The executor
   numbers each depth's blocks over the block's positions with one
   [Table.View.refine] pass, then applies the steps bottom-up to a
   kept bitmap. *)

type plan = Simplify.outcome * Simplify.trace

let compile d : plan = Simplify.run d

(* One depth of the recursion: the step that splits the depth above
   into this depth's blocks. [node.(p)] is the block of position [p];
   blocks are numbered in order of their lowest position, [first], which
   is also the block's witness, and [parent] is the enclosing block. *)
type level = {
  step : Simplify.step;
  node : int array;
  count : int;
  first : int array;
  parent : int array;
  parents : int;
}

(* The levels of a plan over [tbl], ticking once per block as it is
   numbered: one tick per node of the recursion, the root included.
   [] when the root is a leaf: a trivial plan or an empty table. On the
   hard side the recursion descends one path before it gets stuck, so
   that path's ticks are taken before {!Stuck} is raised. *)
let levels budget ((outcome, trace) : plan) tbl =
  Budget.tick ~phase budget;
  let empty = Table.is_empty tbl in
  match outcome with
  | Simplify.Hard stuck ->
    if not empty then List.iter (fun _ -> Budget.tick ~phase budget) trace;
    raise (Stuck stuck)
  | Tractable when empty || trace = [] -> []
  | Tractable ->
    let rec go node parents = function
      | [] -> []
      | (step, _) :: rest ->
        let node', count =
          Table.View.refine tbl node (Simplify.partition step)
        in
        let first = Array.make count 0 and next = ref 0 in
        Array.iteri
          (fun p g ->
            if g = !next then begin
              first.(g) <- p;
              incr next
            end)
          node';
        let parent = Array.map (fun p -> node.(p)) first in
        for _ = 1 to count do
          Budget.tick ~phase budget
        done;
        { step; node = node'; count; first; parent; parents }
        :: go node' count rest
    in
    go (Array.make (Table.View.length tbl) 0) 1 trace

(* The blocks of [lv] inside each block one level up, each list in key
   order: Tuple.compare on the projection that splits them, as
   Table.group_by sorts its groups. *)
let children tbl lv =
  let schema = Table.schema tbl and x = Simplify.partition lv.step in
  let lists = Array.make lv.parents [] in
  for g = lv.count - 1 downto 0 do
    lists.(lv.parent.(g)) <- g :: lists.(lv.parent.(g))
  done;
  Array.map
    (function
      | [ _ ] as one -> one
      | gs ->
        List.map
          (fun g ->
            (Tuple.project schema (Table.View.tuple tbl lv.first.(g)) x, g))
          gs
        |> List.sort (fun (k1, _) (k2, _) -> Tuple.compare k1 k2)
        |> List.map snd)
    lists

(* Apply one level's step to the kept bitmap: [chosen] marks the blocks
   the step keeps, given their weights over the kept positions, summed
   in position (hence id) order as Table.total_weight sums a repair. *)
let apply tbl kept lv =
  let n = Table.View.length tbl in
  let weights () =
    let w = Array.make lv.count 0.0 in
    for p = 0 to n - 1 do
      if Bytes.unsafe_get kept p = '\001' then begin
        let g = lv.node.(p) in
        w.(g) <- w.(g) +. Table.View.weight tbl p
      end
    done;
    w
  in
  let keep chosen =
    for p = 0 to n - 1 do
      if not chosen.(lv.node.(p)) then Bytes.unsafe_set kept p '\000'
    done
  in
  let schema = Table.schema tbl in
  let key x g = Tuple.project schema (Table.View.tuple tbl lv.first.(g)) x in
  match lv.step with
  | Simplify.Common_lhs _ -> ()
  | Consensus fd ->
    let w = weights () and key = key (Fd.rhs fd) in
    let best = Array.make lv.parents (-1) in
    for g = 0 to lv.count - 1 do
      let q = lv.parent.(g) in
      let b = best.(q) in
      if b < 0 || heavier ~key g b w.(g) w.(b) then best.(q) <- g
    done;
    let chosen = Array.make lv.count false in
    Array.iter (fun g -> chosen.(g) <- true) best;
    keep chosen
  | Marriage (x1, x2) ->
    let w = weights () in
    let chosen = Array.make lv.count false in
    Array.iter
      (fun gs ->
        let block = Array.of_list gs in
        List.map (fun g -> (key x1 g, key x2 g, w.(g))) gs
        |> matched
        |> List.iter (fun k -> chosen.(block.(k)) <- true))
      (children tbl lv);
    keep chosen

let execute budget plan tbl =
  match levels budget plan tbl with
  | [] -> tbl
  | lvs ->
    let n = Table.View.length tbl in
    let kept = Bytes.make n '\001' in
    List.iter (apply tbl kept) (List.rev lvs);
    let m = ref 0 in
    Bytes.iter (fun b -> if b = '\001' then incr m) kept;
    let positions = Array.make !m 0 in
    m := 0;
    for p = 0 to n - 1 do
      if Bytes.unsafe_get kept p = '\001' then begin
        positions.(!m) <- p;
        incr m
      end
    done;
    Table.View.of_positions tbl positions

(* The same levels, folding values of any type: each leaf block is a
   sub-view, and each step's blocks are combined in key order. *)
let fold_levels ~leaf ~combine budget plan tbl =
  match levels budget plan tbl with
  | [] -> leaf tbl
  | lvs ->
    let schema = Table.schema tbl in
    let bottom = List.hd (List.rev lvs) in
    let members = Array.make bottom.count [] in
    for p = Table.View.length tbl - 1 downto 0 do
      members.(bottom.node.(p)) <- p :: members.(bottom.node.(p))
    done;
    let values =
      Array.map
        (fun ps -> leaf (Table.View.of_positions tbl (Array.of_list ps)))
        members
    in
    let up values lv =
      Array.map
        (fun gs ->
          List.map
            (fun g -> (Table.View.tuple tbl lv.first.(g), values.(g)))
            gs
          |> combine schema lv.step)
        (children tbl lv)
    in
    (List.fold_left up values (List.rev lvs)).(0)

(* The top level: one Table.group_by on the first step's partition,
   whose blocks are solved through [Table.fold_budgeted] — at the top
   level a wide [runner] solves them as independent tasks, each block
   running [below] on the residual plan, compiled once — and then
   combined. An empty table still fails on a hard Δ: success depends
   on Δ only (Theorem 3.4). *)
let top ~leaf ~combine ~below ?(budget = Budget.unlimited ())
    ?(runner = Table.seq_runner) d tbl =
  Budget.tick ~phase budget;
  let delta = Fd_set.remove_trivial d in
  if Fd_set.is_empty delta then leaf tbl
  else if Table.is_empty tbl then (
    match Simplify.run delta with
    | Simplify.Hard stuck, _ -> raise (Stuck stuck)
    | Simplify.Tractable, _ -> leaf tbl)
  else
    match Simplify.step delta with
    | None -> raise (Stuck delta)
    | Some s ->
      Metrics.with_span (span_name s) (fun () ->
          let x = Simplify.partition s in
          let plan = compile (Fd_set.minus delta x) in
          Table.group_by tbl x
          |> Table.fold_budgeted runner budget
               (fun b (_, sub) -> (Table.View.tuple sub 0, below b plan sub))
               (fun blocks block -> block :: blocks)
               []
          |> List.rev
          |> combine (Table.schema tbl) s)

let fold ~leaf ~combine =
  top ~leaf ~combine ~below:(fold_levels ~leaf ~combine)

let solve_block ?(budget = Budget.unlimited ()) d tbl =
  execute budget (compile d) tbl

let run ?budget ?runner d tbl =
  match
    Metrics.with_span "opt-s-repair" (fun () ->
        top ~leaf:Fun.id ~combine ~below:execute ?budget ?runner d tbl)
  with
  | s -> Ok s
  | exception Stuck stuck -> Error stuck

let run_exn ?budget d tbl =
  match run ?budget d tbl with
  | Ok s -> s
  | Error stuck ->
    failwith
      (Fmt.str "OptSRepair failed: no simplification applies to %a" Fd_set.pp
         stuck)

let distance ?budget d tbl =
  Result.map (fun s -> Table.dist_sub s tbl) (run ?budget d tbl)
