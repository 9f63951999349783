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
   materialized table are views over this one store — which is what
   makes [Table.union]'s same-store merge fast path and byte-identical
   rendering possible.

   Soundness of block locality: the first OptSRepair simplification
   partitions the table on a fixed attribute set (common-lhs attribute,
   consensus rhs, or marriage X1∪X2), and blocks never interact below
   the top-level combine. An insert or delete therefore perturbs exactly
   one block — re-solve it, reuse every other block's cached result
   verbatim. The hard side of the dichotomy has no such decomposition
   (minimum vertex cover is global), so hard sessions maintain the
   conflict graph incrementally instead and re-run the cover per
   summary. *)

open Repair_relational
open Repair_fd
open Repair_runtime
module Metrics = Repair_obs.Metrics
module Cache = Repair_serve.Cache
module Cg = Repair_srepair.Conflict_graph
module Osr = Repair_srepair.Opt_s_repair
module Vc = Repair_graph.Vertex_cover
module Iset = Set.Make (Int)

module Tmap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

module Ttbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* The driver's Auto ladder, replicated. [Driver] lives above this
   library (lib/core aggregates it), so the constants are duplicated
   here; test_stream asserts they stay equal to the driver's. *)
let exact_size_limit = 64
let poly_method = "OptSRepair (Algorithm 1)"
let exact_method = "exact minimum-weight vertex cover (baseline)"
let approx_method = "Bar-Yehuda–Even 2-approximation (Proposition 3.3)"

type kind = Common_lhs | Consensus | Marriage of Attr_set.t * Attr_set.t

type poly = {
  part : Attr_set.t; (* top-level partition attributes *)
  kind : kind;
  smaller : Fd_set.t; (* residual FD set inside a block *)
}

type mode = Trivial | Poly of poly | Hard of Cg.Incremental.t

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
  dt : Fd_set.t; (* remove_trivial delta *)
  salt : string; (* schema + FD text: the cache-key prefix *)
  schema : Schema.t;
  mode : mode;
  mutable work : Table.t;
  mutable dead : Iset.t; (* tombstoned positions of [work] *)
  pos_of_id : (Table.id, int) Hashtbl.t; (* live ids only *)
  mutable blocks : Iset.t Tmap.t; (* Poly: partition key -> alive positions *)
  dig : string Ttbl.t; (* memoized block-cache keys; dropped on any
                          membership change, so a stale digest can
                          never survive a churned block *)
  bcache : (string, entry) Cache.t;
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
    else if not (Repair_dichotomy.Simplify.succeeds d) then
      Hard (Cg.Incremental.of_table d work)
    else
      match Fd_set.common_lhs dt with
      | Some a ->
        let part = Attr_set.singleton a in
        Poly { part; kind = Common_lhs; smaller = Fd_set.minus dt part }
      | None -> (
        match Fd_set.consensus_fd dt with
        | Some fd ->
          let part = Fd.rhs fd in
          Poly { part; kind = Consensus; smaller = Fd_set.minus dt part }
        | None -> (
          match Fd_set.lhs_marriage dt with
          | Some (x1, x2) ->
            let part = Attr_set.union x1 x2 in
            Poly { part; kind = Marriage (x1, x2); smaller = Fd_set.minus dt part }
          | None ->
            (* Simplify.succeeds said the chain completes. *)
            assert false))
  in
  let t =
    {
      delta = d;
      dt;
      salt = Fmt.str "%a|%a" Schema.pp schema Fd_set.pp d;
      schema;
      mode;
      work;
      dead = Iset.empty;
      pos_of_id = Hashtbl.create (max 16 (2 * n));
      blocks = Tmap.empty;
      dig = Ttbl.create 64;
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
  (match t.mode with
  | Poly p ->
    for pos = 0 to n - 1 do
      let key = Tuple.project schema (Table.View.tuple work pos) p.part in
      t.blocks <-
        Tmap.update key
          (function
            | None -> Some (Iset.singleton pos) | Some s -> Some (Iset.add pos s))
          t.blocks
    done
  | Trivial | Hard _ -> ());
  t

let fds t = t.delta
let schema t = t.schema
let size t = Table.size t.work - Iset.cardinal t.dead

let last_id t =
  let n = Table.size t.work in
  if n = 0 then min_int else Table.View.id t.work (n - 1)

(* Block-cache key: (schema hash, group key, member-id slice). The
   member-id slice is load-bearing — any membership change (insert OR
   delete) yields a fresh key, so a delete in one group can never serve
   a stale cached block, and an undone insert legitimately re-hits the
   old slice's entry (ids are never reused, tuples are immutable). *)
let block_key t key members =
  match Ttbl.find_opt t.dig key with
  | Some d -> d
  | None ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf t.salt;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (Tuple.to_string key);
    Buffer.add_char buf '\x00';
    Iset.iter
      (fun pos ->
        Buffer.add_string buf (string_of_int (Table.View.id t.work pos));
        Buffer.add_char buf ',')
      members;
    let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    Ttbl.replace t.dig key d;
    d

(* Solve one block under the residual FD set, under Metrics.capture with
   a fresh unlimited budget — exactly what a Table.fold_budgeted worker
   task does when Opt_s_repair fans blocks out.
   The captured registry and spent steps go into the cache entry so
   summaries can replay them. *)
let solve_entry t p key members =
  let bk = block_key t key members in
  match Cache.find t.bcache bk with
  | Some e -> e
  | None -> (
    Metrics.incr "stream.block-solves";
    let sub =
      let arr = Array.make (Iset.cardinal members) 0 in
      let k = ref 0 in
      Iset.iter
        (fun pos ->
          Array.unsafe_set arr !k pos;
          incr k)
        members;
      Table.View.of_positions t.work arr
    in
    let res, captured =
      Metrics.capture (fun () ->
          let b = Budget.unlimited () in
          let s = Osr.solve_block ~budget:b p.smaller sub in
          (s, Budget.steps b))
    in
    match res with
    | Ok (s, steps) ->
      let e = { e_repair = s; e_captured = captured; e_steps = steps } in
      Cache.add t.bcache bk e;
      e
    | Error exn -> raise exn)

let apply_insert t ~id ~weight values =
  let arity = List.length values in
  if arity <> Schema.arity t.schema then
    err
      (Printf.sprintf "insert arity %d does not match schema arity %d" arity
         (Schema.arity t.schema));
  if weight <= 0.0 then err "insert weight must be positive";
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
  | Trivial -> ()
  | Hard cg -> Cg.Incremental.insert cg ~id ~weight tuple
  | Poly p ->
    let key = Tuple.project t.schema tuple p.part in
    let members =
      Iset.add pos
        (match Tmap.find_opt key t.blocks with
        | Some s -> s
        | None -> Iset.empty)
    in
    t.blocks <- Tmap.add key members t.blocks;
    Ttbl.remove t.dig key;
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
    | Trivial -> ()
    | Hard cg -> Cg.Incremental.delete cg id
    | Poly p ->
      let key = Tuple.project t.schema (Table.View.tuple t.work pos) p.part in
      let members = Iset.remove pos (Tmap.find key t.blocks) in
      Ttbl.remove t.dig key;
      if Iset.is_empty members then t.blocks <- Tmap.remove key t.blocks
      else begin
        t.blocks <- Tmap.add key members t.blocks;
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

(* The top-level combine, replicating the batch solve's structure on the
   cached blocks. Tmap.bindings iterates keys in Tuple.compare order —
   the same order Table.group_by sorts its groups — and every alive
   position is in exactly one block, so the blocks here are the blocks a
   cold group_by on the materialized table would produce, in the same
   order, viewing the same store positions. *)
let combine t p budget =
  let use key members =
    let e = solve_entry t p key members in
    Metrics.merge e.e_captured;
    Budget.absorb budget ~steps:e.e_steps;
    e.e_repair
  in
  let blocks = Tmap.bindings t.blocks in
  match p.kind with
  | Common_lhs ->
    (* Equivalent to folding same-store [Table.union] over the blocks —
       that merge only id-sorts the kept rows — but built in one pass.
       Session store positions are in id order (create seeds them from
       the base's id-ordered view and inserts only append with larger
       ids), so marking kept positions in a bitmap and scanning it
       ascending produces exactly the id-sorted merge the fold would.
       Kept positions per block come from matching the block repair's
       (ascending) ids against the block's (ascending-by-id) member
       positions — no hashing, one pass per block. *)
    let n_store = Table.size t.work in
    let keep = Bytes.make n_store '\000' in
    let total = ref 0 in
    List.iter
      (fun (key, members) ->
        let r = use key members in
        let ids = Table.View.ids_array r in
        let n_ids = Array.length ids in
        total := !total + n_ids;
        let j = ref 0 in
        Iset.iter
          (fun pos ->
            if !j < n_ids && Table.View.id t.work pos = Array.unsafe_get ids !j
            then begin
              Bytes.unsafe_set keep pos '\001';
              incr j
            end)
          members)
      blocks;
    let kept = Array.make !total 0 in
    let m = ref 0 in
    for pos = 0 to n_store - 1 do
      if Bytes.unsafe_get keep pos = '\001' then begin
        Array.unsafe_set kept !m pos;
        incr m
      end
    done;
    Table.View.of_positions t.work kept
  | Consensus -> (
    match blocks with
    | [] -> assert false (* caller guarantees a nonempty table *)
    | (k0, m0) :: rest ->
      List.fold_left
        (fun best (k, ms) ->
          let s = use k ms in
          if Table.total_weight s > Table.total_weight best then s else best)
        (use k0 m0) rest)
  | Marriage (x1, x2) ->
    let bl =
      List.map
        (fun (key, members) ->
          let witness = Table.View.tuple t.work (Iset.min_elt members) in
          ( Tuple.project t.schema witness x1,
            Tuple.project t.schema witness x2,
            use key members ))
        blocks
    in
    Osr.marriage_combine t.schema bl

let summary t =
  t.summaries <- t.summaries + 1;
  Metrics.incr "stream.summaries";
  let m = materialized t in
  let budget = Budget.unlimited () in
  let finish ~optimal ~ratio ~method_used result =
    { result; distance = Table.dist_sub result m; optimal; ratio; method_used }
  in
  match t.mode with
  | Trivial ->
    let result =
      Metrics.with_span "opt-s-repair" (fun () ->
          Budget.tick ~phase:"opt-s-repair" budget;
          m)
    in
    finish ~optimal:true ~ratio:1.0 ~method_used:poly_method result
  | Poly p ->
    let result =
      Metrics.with_span "opt-s-repair" (fun () ->
          Budget.tick ~phase:"opt-s-repair" budget;
          if Table.is_empty m then begin
            Osr.check_delta_only t.dt;
            m
          end
          else
            let span_name =
              match p.kind with
              | Common_lhs -> "common-lhs"
              | Consensus -> "consensus"
              | Marriage _ -> "marriage"
            in
            Metrics.with_span span_name (fun () -> combine t p budget))
    in
    finish ~optimal:true ~ratio:1.0 ~method_used:poly_method result
  | Hard cg ->
    if Table.size m <= exact_size_limit then
      let result =
        Metrics.with_span "s-exact" (fun () ->
            let dense = Cg.Incremental.materialize cg in
            let cover = Vc.exact ~budget (Cg.graph dense) in
            Cg.delete_cover dense m cover)
      in
      finish ~optimal:true ~ratio:1.0 ~method_used:exact_method result
    else
      let result =
        Metrics.with_span "s-approx" (fun () ->
            let dense = Cg.Incremental.materialize cg in
            let cover = Vc.approx2 (Cg.graph dense) in
            Cg.delete_cover dense m cover)
      in
      finish ~optimal:false ~ratio:2.0 ~method_used:approx_method result

type stats = {
  ticks : int;
  inserts : int;
  deletes : int;
  rejects : int;
  summaries : int;
  live : int;
  blocks : int;
  conflicts : int option;
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
    conflicts =
      (match t.mode with
      | Hard cg -> Some (Cg.Incremental.n_conflicts cg)
      | Trivial | Poly _ -> None);
    cache = Cache.stats t.bcache;
  }
