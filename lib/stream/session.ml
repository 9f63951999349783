(* Incremental streaming repair (DESIGN §16): keep a repair current under
   tuple inserts/deletes at O(affected-group) cost per tick, with a
   summary that is byte-identical — report, distances, rendered tables,
   and integer metrics (modulo the stream.* counters) — to a from-scratch
   driver run on the materialized table.

   The working table [work] owns its store tip: it is copied from the
   base exactly once at [create] and then grows only by tip appends
   (ids strictly increase, so [Table.add] is an O(1) push and never
   rebuilds the store). Deletes are tombstoned positions applied at
   summary time (materializing is O(n), so it runs once per summary,
   never per tick). Every block sub-view, cached block repair, and the
   materialized table are views over this one store, so the combined
   repair renders byte for byte like a cold run's.

   Soundness of block locality: the first OptSRepair simplification
   ([Simplify.step]) partitions the table on a fixed attribute set,
   and blocks never interact below the top-level combine. An insert or
   delete therefore perturbs exactly one block — re-solve it, reuse
   every other block's cached result verbatim, and recombine them with
   [Opt_s_repair.combine], exactly as the batch top level does. Only
   the polynomial side has that partition: on the hard side a repair is
   a global vertex cover (Prop. 3.3). Trivial and Hard sessions
   therefore keep no solver state; a summary runs, on the materialized
   table, the function the driver's Auto ladder runs for that Δ. *)

open Repair_relational
open Repair_fd
open Repair_runtime
module Metrics = Repair_obs.Metrics
module Cache = Repair_serve.Cache
module Osr = Repair_srepair.Opt_s_repair
module S_exact = Repair_srepair.S_exact
module S_approx = Repair_srepair.S_approx
module Simplify = Repair_dichotomy.Simplify
module Iset = Set.Make (Int)

module Tmap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type poly = {
  step : Simplify.step; (* the top-level simplification *)
  part : Attr_set.t; (* its partition attributes *)
  smaller : Fd_set.t; (* residual FD set inside a block *)
}

type mode = Trivial | Poly of poly | Hard

(* A block's alive members: store positions, ascending, and their ids.
   Positions ascend in id order, so [ids] ascends too. Ids are never
   reused and tuples never change, so equal id arrays mean equal blocks:
   [ids] is the block-cache key. Any membership change (insert OR
   delete) yields a fresh key, so a churned block can never be served a
   stale repair, and an undone insert legitimately re-hits the old
   entry. *)
type block = { positions : int array; ids : Table.id array }

(* A cached block result: the repair (a view over the session store),
   the metrics captured while solving it, and the budget steps it spent.
   Summaries replay capture and steps in block order — the same
   absorb-at-the-barrier contract Table.fold_budgeted uses when
   Opt_s_repair fans blocks out — so integer metrics come out equal to
   an inline solve. *)
type entry = {
  e_repair : Table.t;
  e_captured : Metrics.captured;
  e_steps : int;
}

type t = {
  delta : Fd_set.t;
  schema : Schema.t;
  mode : mode;
  mutable work : Table.t;
  mutable dead : Iset.t; (* tombstoned positions of [work] *)
  pos_of_id : (Table.id, int) Hashtbl.t; (* live ids only *)
  mutable blocks : block Tmap.t; (* Poly: partition key -> alive members *)
  bcache : (Table.id array, entry) Cache.t;
  mutable ticks : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable rejects : int;
  mutable summaries : int;
}

let err detail =
  Repair_error.raise_error (Parse { source = "<delta>"; line = None; detail })

let default_cache_capacity = 512

let create ?(cache_capacity = default_cache_capacity) d base =
  let schema = Table.schema base in
  let n = Table.size base in
  (* Copy the base into a store this session owns the tip of: appends
     stay O(1) pushes and every view shares the one store. Seeding by
     tip appends (rather than [Table.Builder], which trims capacity to
     exactly [n]) leaves the store with doubling headroom, so the first
     streamed insert is a plain push instead of a full-store copy. *)
  let work = ref (Table.empty schema) in
  for pos = 0 to n - 1 do
    work :=
      Table.add ~id:(Table.View.id base pos)
        ~weight:(Table.View.weight base pos) !work (Table.View.tuple base pos)
  done;
  let work = !work in
  let dt = Fd_set.remove_trivial d in
  let mode =
    if Fd_set.is_empty dt then Trivial
    else if not (Simplify.succeeds d) then Hard
    else
      match Simplify.step dt with
      | Some step ->
        let part = Simplify.partition step in
        Poly { step; part; smaller = Fd_set.minus dt part }
      | None ->
        (* Simplify.succeeds said the chain completes. *)
        assert false
  in
  let blocks =
    match mode with
    | Poly p ->
      List.fold_left
        (fun m (key, positions) ->
          let ids = Array.map (Table.View.id work) positions in
          Tmap.add key { positions; ids } m)
        Tmap.empty
        (Table.View.groups work p.part)
    | Trivial | Hard -> Tmap.empty
  in
  let t =
    {
      delta = d;
      schema;
      mode;
      work;
      dead = Iset.empty;
      pos_of_id = Hashtbl.create (max 16 (2 * n));
      blocks;
      bcache = Cache.create ~name:"stream.block-cache" ~capacity:cache_capacity;
      ticks = 0;
      inserts = 0;
      deletes = 0;
      rejects = 0;
      summaries = 0;
    }
  in
  for pos = 0 to n - 1 do
    Hashtbl.replace t.pos_of_id (Table.View.id work pos) pos
  done;
  t

let fds t = t.delta
let schema t = t.schema
let size t = Table.size t.work - Iset.cardinal t.dead

let last_id t =
  let n = Table.size t.work in
  if n = 0 then min_int else Table.View.id t.work (n - 1)

(* Solve one block under the residual FD set, under Metrics.capture with
   a fresh unlimited budget — exactly what a Table.fold_budgeted worker
   task does when Opt_s_repair fans blocks out.
   The captured registry and spent steps go into the cache entry so
   summaries can replay them. *)
let solve_entry t p b =
  match Cache.find t.bcache b.ids with
  | Some e -> e
  | None -> (
    Metrics.incr "stream.block-solves";
    let sub = Table.View.of_positions t.work b.positions in
    let res, captured =
      Metrics.capture (fun () ->
          let budget = Budget.unlimited () in
          let s = Osr.solve_block ~budget p.smaller sub in
          (s, Budget.steps budget))
    in
    match res with
    | Ok (s, steps) ->
      let e = { e_repair = s; e_captured = captured; e_steps = steps } in
      Cache.add t.bcache b.ids e;
      e
    | Error exn -> raise exn)

let apply_insert t ~id ~weight values =
  let arity = List.length values in
  if arity <> Schema.arity t.schema then
    err
      (Printf.sprintf "insert arity %d does not match schema arity %d" arity
         (Schema.arity t.schema));
  if not (weight > 0.0) then err "insert weight must be positive";
  if weight = Float.infinity then err "insert weight must be finite";
  (match id with
  | Some i when i <= last_id t ->
    err
      (Printf.sprintf
         "insert id %d must exceed every id seen (last is %d); ids are never \
          reused"
         i (last_id t))
  | _ -> ());
  let tuple = Tuple.make values in
  let pos = Table.size t.work in
  t.work <- Table.add ?id ~weight t.work tuple;
  let id = Table.View.id t.work pos in
  Hashtbl.replace t.pos_of_id id pos;
  t.inserts <- t.inserts + 1;
  Metrics.incr "stream.inserts";
  match t.mode with
  | Trivial | Hard -> ()
  | Poly p ->
    (* The new row is the store tip: the highest position and id. *)
    let key = Tuple.project t.schema tuple p.part in
    let b =
      match Tmap.find_opt key t.blocks with
      | Some b ->
        { positions = Array.append b.positions [| pos |];
          ids = Array.append b.ids [| id |] }
      | None -> { positions = [| pos |]; ids = [| id |] }
    in
    t.blocks <- Tmap.add key b t.blocks;
    Metrics.incr "stream.dirty-blocks";
    Metrics.incr ~by:(Tmap.cardinal t.blocks) "stream.blocks"

let apply_delete t id =
  match Hashtbl.find_opt t.pos_of_id id with
  | None -> err (Printf.sprintf "delete of unknown or already-deleted id %d" id)
  | Some pos -> (
    Hashtbl.remove t.pos_of_id id;
    t.dead <- Iset.add pos t.dead;
    t.deletes <- t.deletes + 1;
    Metrics.incr "stream.deletes";
    match t.mode with
    | Trivial | Hard -> ()
    | Poly p ->
      let key = Tuple.project t.schema (Table.View.tuple t.work pos) p.part in
      let b = Tmap.find key t.blocks in
      let n = Array.length b.positions in
      if n = 1 then t.blocks <- Tmap.remove key t.blocks
      else begin
        let k = Option.get (Array.find_index (Int.equal pos) b.positions) in
        let drop a =
          Array.init (n - 1) (fun i -> if i < k then a.(i) else a.(i + 1))
        in
        t.blocks <-
          Tmap.add key
            { positions = drop b.positions; ids = drop b.ids }
            t.blocks;
        Metrics.incr "stream.dirty-blocks";
        Metrics.incr ~by:(Tmap.cardinal t.blocks) "stream.blocks"
      end)

let tick t (d : Delta.t) =
  match
    match d with
    | Delta.Insert { id; weight; values } -> apply_insert t ~id ~weight values
    | Delta.Delete { id } -> apply_delete t id
  with
  | () ->
    t.ticks <- t.ticks + 1;
    Metrics.incr "stream.ticks"
  | exception e ->
    t.rejects <- t.rejects + 1;
    Metrics.incr "stream.rejects";
    raise e

(* Same table [Table.remove] would produce — [work]'s view is [All], so
   visible positions are row indices and dropping the tombstoned ones in
   ascending order is exactly the select — without the per-row hashtable
   probe. *)
let materialized t =
  if Iset.is_empty t.dead then t.work
  else begin
    let n = Table.size t.work in
    let dead = Bytes.make n '\000' in
    Iset.iter (fun pos -> Bytes.set dead pos '\001') t.dead;
    let live = Array.make (n - Iset.cardinal t.dead) 0 in
    let m = ref 0 in
    for pos = 0 to n - 1 do
      if Bytes.unsafe_get dead pos = '\000' then begin
        Array.unsafe_set live !m pos;
        incr m
      end
    done;
    Table.View.of_positions t.work live
  end

type report = {
  result : Table.t;
  distance : float;
  optimal : bool;
  ratio : float;
  method_used : string;
}

let summary t =
  t.summaries <- t.summaries + 1;
  Metrics.incr "stream.summaries";
  let m = materialized t in
  let budget = Budget.unlimited () in
  let finish ~optimal ~ratio ~method_used result =
    { result; distance = Table.dist_sub result m; optimal; ratio; method_used }
  in
  match t.mode with
  (* Trivial and Hard: the driver's Auto-ladder rung for Δ, run cold on
     the materialized table — its spans, counters and method. *)
  | Trivial ->
    finish ~optimal:true ~ratio:1.0 ~method_used:Osr.method_name
      (Osr.run_exn ~budget t.delta m)
  | Hard when Table.size m <= S_exact.size_limit ->
    finish ~optimal:true ~ratio:1.0 ~method_used:S_exact.method_name
      (S_exact.optimal ~budget t.delta m)
  | Hard ->
    finish ~optimal:false ~ratio:2.0 ~method_used:S_approx.method_name
      (S_approx.approx2 t.delta m)
  | Poly p ->
    let result =
      Metrics.with_span "opt-s-repair" (fun () ->
          Budget.tick ~phase:"opt-s-repair" budget;
          if Table.is_empty m then m
          else
            (* Tmap.bindings iterates keys in Tuple.compare order — the
               order Table.group_by sorts its groups — and every alive
               position is in exactly one block, so these are the blocks
               a cold run on [m] solves, in the same order. Each block's
               captured metrics and steps are replayed in that order, as
               Table.fold_budgeted absorbs a wide run's tasks. *)
            Metrics.with_span (Osr.span_name p.step) (fun () ->
                Tmap.bindings t.blocks
                |> List.map (fun (_, b) ->
                       let e = solve_entry t p b in
                       Metrics.merge e.e_captured;
                       Budget.absorb budget ~steps:e.e_steps;
                       (Table.View.tuple t.work b.positions.(0), e.e_repair))
                |> Osr.combine t.schema p.step))
    in
    finish ~optimal:true ~ratio:1.0 ~method_used:Osr.method_name result

type stats = {
  ticks : int;
  inserts : int;
  deletes : int;
  rejects : int;
  summaries : int;
  live : int;
  blocks : int;
  cache : Cache.stats;
}

let stats (t : t) =
  {
    ticks = t.ticks;
    inserts = t.inserts;
    deletes = t.deletes;
    rejects = t.rejects;
    summaries = t.summaries;
    live = size t;
    blocks = Tmap.cardinal t.blocks;
    cache = Cache.stats t.bcache;
  }
