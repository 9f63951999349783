(* Columnar table core.

   A table is a view over an append-only columnar [store]: contiguous
   arrays of identifiers, weights, tuples, and per-column interned value
   codes (see {!Interner}). Relational operations that used to rebuild a
   persistent map per result — [group_by], [select], [restrict],
   [union] — now return O(result-size) id-slice views sharing the
   backing store, and grouping is a single hash pass over the interned
   code columns instead of one [Imap.filter] over the whole table per
   group.

   Representation invariants:
   - a table's visible rows are either the store prefix [0, len) ([All])
     or an explicit array of store row indices ([Rows]);
   - visible identifiers strictly increase in visible order, so
     iteration is in id order (as with the seed's [Map.Make (Int)]) and
     id lookup is a binary search — no side index to rebuild;
   - identifiers are unique across all committed rows of a store;
   - stores grow only at the end, and only through the unique "tip"
     table ([view = All] and [len = store.len]); every other mutation
     materializes a fresh store, sharing the interner pool so code
     columns copy without re-hashing. *)

type id = int

type store = {
  pool : Interner.t;
  mutable len : int; (* committed rows *)
  mutable ids : id array;
  mutable weights : float array;
  mutable tuples : Tuple.t array;
  mutable codes : int array array; (* codes.(col).(row) *)
}

type view =
  | All (* store rows [0, len), ids strictly increasing *)
  | Rows of int array (* store row indices, in increasing id order *)

type t = { schema : Schema.t; store : store; len : int; view : view }

let no_tuple = Tuple.make []

let new_store schema ~cap =
  {
    pool = Interner.create ();
    len = 0;
    ids = Array.make cap 0;
    weights = Array.make cap 0.0;
    tuples = Array.make cap no_tuple;
    codes = Array.init (Schema.arity schema) (fun _ -> Array.make cap 0);
  }

let empty schema = { schema; store = new_store schema ~cap:0; len = 0; view = All }

let check_weight what weight =
  if not (weight > 0.0) then invalid_arg (what ^ ": weight must be positive");
  if weight = Float.infinity then invalid_arg (what ^ ": weight must be finite")

let check_row schema ?(what = "Table.add") weight tuple =
  check_weight what weight;
  if Tuple.arity tuple <> Schema.arity schema then
    invalid_arg (what ^ ": tuple arity does not match schema")

(* ---------- visible-row accessors ---------- *)

let size tbl = match tbl.view with All -> tbl.len | Rows a -> Array.length a
let is_empty tbl = size tbl = 0

let row_at tbl k = match tbl.view with All -> k | Rows a -> a.(k)
let id_at tbl k = tbl.store.ids.(row_at tbl k)
let tuple_at tbl k = tbl.store.tuples.(row_at tbl k)
let weight_at tbl k = tbl.store.weights.(row_at tbl k)

(* Visible ids strictly increase, so id lookup is a binary search over
   the visible sequence. Returns the visible position of [i]. *)
let find_pos tbl i =
  let n = size tbl in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if id_at tbl mid < i then lo := mid + 1 else hi := mid
  done;
  if !lo < n && id_at tbl !lo = i then Some !lo else None

let mem tbl i = find_pos tbl i <> None

let find_opt tbl i =
  Option.map (fun k -> (tuple_at tbl k, weight_at tbl k)) (find_pos tbl i)

let pos_exn tbl i =
  match find_pos tbl i with Some k -> k | None -> raise Not_found

let tuple tbl i = tuple_at tbl (pos_exn tbl i)
let weight tbl i = weight_at tbl (pos_exn tbl i)

let schema tbl = tbl.schema
let ids tbl = List.init (size tbl) (id_at tbl)
let tuples tbl = List.init (size tbl) (tuple_at tbl)

let fold f tbl acc =
  let acc = ref acc in
  for k = 0 to size tbl - 1 do
    acc := f (id_at tbl k) (tuple_at tbl k) (weight_at tbl k) !acc
  done;
  !acc

let iter f tbl =
  for k = 0 to size tbl - 1 do
    f (id_at tbl k) (tuple_at tbl k) (weight_at tbl k)
  done

let for_all p tbl =
  let n = size tbl in
  let rec go k = k >= n || (p (id_at tbl k) (tuple_at tbl k) && go (k + 1)) in
  go 0

let exists p tbl =
  let n = size tbl in
  let rec go k = k < n && (p (id_at tbl k) (tuple_at tbl k) || go (k + 1)) in
  go 0

let total_weight tbl =
  let acc = ref 0.0 in
  for k = 0 to size tbl - 1 do
    acc := !acc +. weight_at tbl k
  done;
  !acc

(* ---------- store growth and materialization ---------- *)

let ensure_capacity (st : store) extra =
  let needed = st.len + extra in
  let cap = Array.length st.ids in
  if needed > cap then begin
    let cap' = max needed (max 16 (2 * cap)) in
    let grow_int a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 st.len;
      b
    in
    st.ids <- grow_int st.ids;
    let w = Array.make cap' 0.0 in
    Array.blit st.weights 0 w 0 st.len;
    st.weights <- w;
    let tp = Array.make cap' no_tuple in
    Array.blit st.tuples 0 tp 0 st.len;
    st.tuples <- tp;
    st.codes <- Array.map grow_int st.codes
  end

(* Append one committed row; caller guarantees id uniqueness. *)
let push (st : store) i w t =
  ensure_capacity st 1;
  let r = st.len in
  st.ids.(r) <- i;
  st.weights.(r) <- w;
  st.tuples.(r) <- t;
  Array.iteri (fun c col -> col.(r) <- Interner.intern st.pool (Tuple.get t c)) st.codes;
  st.len <- r + 1

(* Fresh store holding this table's visible rows (in id order), sharing
   the interner pool so code columns copy verbatim. [insert], when
   given, splices one new row at visible position [at]. *)
let rebuild ?insert tbl =
  let st = tbl.store in
  let n = size tbl in
  let extra = if insert = None then 0 else 1 in
  let n' = n + extra in
  let ids = Array.make (max n' 1) 0 in
  let weights = Array.make (max n' 1) 0.0 in
  let tuples = Array.make (max n' 1) no_tuple in
  let arity = Array.length st.codes in
  let codes = Array.init arity (fun _ -> Array.make (max n' 1) 0) in
  let write k' r =
    ids.(k') <- st.ids.(r);
    weights.(k') <- st.weights.(r);
    tuples.(k') <- st.tuples.(r);
    for c = 0 to arity - 1 do
      codes.(c).(k') <- st.codes.(c).(r)
    done
  in
  (match insert with
  | None ->
    for k = 0 to n - 1 do
      write k (row_at tbl k)
    done
  | Some (at, i, w, t) ->
    for k = 0 to at - 1 do
      write k (row_at tbl k)
    done;
    ids.(at) <- i;
    weights.(at) <- w;
    tuples.(at) <- t;
    for c = 0 to arity - 1 do
      codes.(c).(at) <- Interner.intern st.pool (Tuple.get t c)
    done;
    for k = at to n - 1 do
      write (k + 1) (row_at tbl k)
    done);
  let store = { pool = st.pool; len = n'; ids; weights; tuples; codes } in
  { tbl with store; len = n'; view = All }

(* ---------- construction ---------- *)

let next_id tbl =
  let n = size tbl in
  if n = 0 then 1 else id_at tbl (n - 1) + 1

let add ?id ?(weight = 1.0) tbl tuple =
  check_row tbl.schema weight tuple;
  let i = match id with Some i -> i | None -> next_id tbl in
  if mem tbl i then
    invalid_arg (Printf.sprintf "Table.add: duplicate identifier %d" i);
  let n = size tbl in
  let at_tip = tbl.view = All && tbl.len = tbl.store.len in
  if at_tip && (n = 0 || i > id_at tbl (n - 1)) then begin
    push tbl.store i weight tuple;
    { tbl with len = tbl.len + 1 }
  end
  else begin
    (* Out-of-order id, or a table that no longer owns the store tip:
       rebuild the visible prefix with the row spliced in id order. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if id_at tbl mid < i then lo := mid + 1 else hi := mid
    done;
    rebuild ~insert:(!lo, i, weight, tuple) tbl
  end

(* Bulk construction: validate rows in arrival order (same errors as a
   fold over [add]), then build the columnar store in one pass. *)
module Builder = struct
  type t = {
    b_schema : Schema.t;
    mutable b_ids : id array;
    mutable b_weights : float array;
    mutable b_tuples : Tuple.t array;
    mutable b_n : int;
    mutable seen : (id, unit) Hashtbl.t option;
        (* [None] while every id has been above the previous one: the
           ids are then distinct, and the set is only built, from
           [b_ids], at the first id that is not. *)
  }

  let create ?(capacity = 16) schema =
    {
      b_schema = schema;
      b_ids = Array.make (max capacity 1) 0;
      b_weights = Array.make (max capacity 1) 0.0;
      b_tuples = Array.make (max capacity 1) no_tuple;
      b_n = 0;
      seen = None;
    }

  let length b = b.b_n

  (* The set of the ids added so far, built on first use. *)
  let seen_set b =
    match b.seen with
    | Some seen -> seen
    | None ->
      let seen = Hashtbl.create (max (2 * b.b_n) 16) in
      for k = 0 to b.b_n - 1 do
        Hashtbl.add seen b.b_ids.(k) ()
      done;
      b.seen <- Some seen;
      seen

  let add ?id ?(weight = 1.0) b tuple =
    check_row b.b_schema weight tuple;
    let n = b.b_n in
    let i =
      (* [b_ids] is not sorted in general, so the implicit-id rule
         "one above the current maximum" needs the running maximum, not
         the last id; while [seen] is [None] they coincide. *)
      match (id, b.seen) with
      | Some i, _ -> i
      | None, _ when n = 0 -> 1
      | None, None -> b.b_ids.(n - 1) + 1
      | None, Some _ -> Array.fold_left max min_int (Array.sub b.b_ids 0 n) + 1
    in
    if Option.is_some b.seen || (n > 0 && i <= b.b_ids.(n - 1)) then begin
      let seen = seen_set b in
      if Hashtbl.mem seen i then
        invalid_arg (Printf.sprintf "Table.add: duplicate identifier %d" i);
      Hashtbl.add seen i ()
    end;
    if b.b_n = Array.length b.b_ids then begin
      let cap' = 2 * b.b_n in
      let ids = Array.make cap' 0 in
      Array.blit b.b_ids 0 ids 0 b.b_n;
      b.b_ids <- ids;
      let ws = Array.make cap' 0.0 in
      Array.blit b.b_weights 0 ws 0 b.b_n;
      b.b_weights <- ws;
      let ts = Array.make cap' no_tuple in
      Array.blit b.b_tuples 0 ts 0 b.b_n;
      b.b_tuples <- ts
    end;
    b.b_ids.(b.b_n) <- i;
    b.b_weights.(b.b_n) <- weight;
    b.b_tuples.(b.b_n) <- tuple;
    b.b_n <- b.b_n + 1

  let build b =
    let n = b.b_n in
    let order = Array.init n (fun k -> k) in
    if Option.is_some b.seen then
      Array.sort (fun k1 k2 -> compare b.b_ids.(k1) b.b_ids.(k2)) order;
    let store = new_store b.b_schema ~cap:(max n 1) in
    for k = 0 to n - 1 do
      let j = order.(k) in
      push store b.b_ids.(j) b.b_weights.(j) b.b_tuples.(j)
    done;
    { schema = b.b_schema; store; len = n; view = All }
end

let of_list schema rows =
  let b = Builder.create ~capacity:(List.length rows) schema in
  List.iter (fun (id, weight, tuple) -> Builder.add ~id ~weight b tuple) rows;
  Builder.build b

let of_tuples schema tuples =
  let b = Builder.create ~capacity:(List.length tuples) schema in
  List.iter (fun tuple -> Builder.add b tuple) tuples;
  Builder.build b

(* ---------- predicates ---------- *)

let is_unweighted tbl =
  let n = size tbl in
  n = 0
  ||
  let w0 = weight_at tbl 0 in
  let rec go k = k >= n || (weight_at tbl k = w0 && go (k + 1)) in
  go 1

(* ---------- grouping on interned code columns ---------- *)

module Key = struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash a = Array.fold_left (fun h c -> (h * 31) + c + 1) 17 a
end

module Ktbl = Hashtbl.Make (Key)

(* Partition store rows [rows] by the interned codes of columns [cols].
   Returns groups as arrays of indices into [rows], groups in
   first-seen order, members in input order. One hash pass + one
   bucketing pass: O(|rows|) for any number of groups. *)
let partition (st : store) cols rows =
  let k = Array.length cols in
  let n = Array.length rows in
  if n = 0 then []
  else if k = 0 then [ Array.init n (fun j -> j) ]
  else begin
    let gid = Array.make n 0 in
    let n_groups = ref 0 in
    (if k = 1 then begin
       let col = st.codes.(cols.(0)) in
       let index = Hashtbl.create (2 * n) in
       for j = 0 to n - 1 do
         let c = col.(rows.(j)) in
         match Hashtbl.find_opt index c with
         | Some g -> gid.(j) <- g
         | None ->
           let g = !n_groups in
           incr n_groups;
           Hashtbl.add index c g;
           gid.(j) <- g
       done
     end
     else begin
       let code_cols = Array.map (fun c -> st.codes.(c)) cols in
       let index = Ktbl.create (2 * n) in
       for j = 0 to n - 1 do
         let r = rows.(j) in
         let key = Array.map (fun col -> col.(r)) code_cols in
         match Ktbl.find_opt index key with
         | Some g -> gid.(j) <- g
         | None ->
           let g = !n_groups in
           incr n_groups;
           Ktbl.add index key g;
           gid.(j) <- g
       done
     end);
    let counts = Array.make !n_groups 0 in
    Array.iter (fun g -> counts.(g) <- counts.(g) + 1) gid;
    let out = Array.map (fun c -> Array.make c 0) counts in
    let fill = Array.make !n_groups 0 in
    for j = 0 to n - 1 do
      let g = gid.(j) in
      out.(g).(fill.(g)) <- j;
      fill.(g) <- fill.(g) + 1
    done;
    Array.to_list out
  end

let visible_rows tbl =
  match tbl.view with
  | Rows a -> a
  | All -> Array.init tbl.len (fun k -> k)

let cols_of tbl x = Array.of_list (Schema.indices_of tbl.schema x)

(* ---------- runners and chunked grouping ---------- *)

type runner = {
  run : 'a. (unit -> 'a) array -> 'a array;
  width : int;  (* natural fan-out: chunk count when the caller has no
                   better choice (a pool's domain count) *)
}

let seq_runner = { run = (fun tasks -> Array.map (fun f -> f ()) tasks); width = 1 }

(* The one place that decides whether budgeted work fans out. Step
   budgets are sequential accumulators: a limited budget's exhaustion
   point is observable, so it keeps the inline fold, as do a width-1
   runner and a single item. Wide, each task runs under a fresh
   unlimited budget, and the spent steps are absorbed into [budget] at
   the barrier, in list order, so the total equals the inline run's. *)
let fold_budgeted runner budget f combine init xs =
  let module Budget = Repair_runtime.Budget in
  match xs with
  | _ :: _ :: _ when runner.width > 1 && not (Budget.limited budget) ->
    let task x () =
      let b = Budget.unlimited () in
      let r = f b x in
      (r, Budget.steps b)
    in
    Array.fold_left
      (fun acc (r, steps) ->
        Budget.absorb budget ~steps;
        combine acc r)
      init
      (runner.run (Array.of_list (List.map task xs)))
  | _ -> List.fold_left (fun acc x -> combine acc (f budget x)) init xs

(* Deterministic chunk layout: [chunks] near-equal contiguous slices of
   [0 .. n-1], the remainder spread over the leading chunks.
   [chunk_sizes] overrides the layout (scheduler-perturbation tests
   exercise this); the sizes must sum to [n]. *)
let chunk_layout ?chunk_sizes ~chunks n =
  match chunk_sizes with
  | Some sizes ->
    if Array.exists (fun s -> s < 0) sizes then
      invalid_arg "Table.chunk_layout: negative chunk size";
    if Array.fold_left ( + ) 0 sizes <> n then
      invalid_arg "Table.chunk_layout: chunk sizes must sum to the row count";
    let off = ref 0 in
    Array.map
      (fun len ->
        let lo = !off in
        off := lo + len;
        (lo, len))
      sizes
  | None ->
    let chunks = max 1 (min chunks (max 1 n)) in
    let base = n / chunks and rem = n mod chunks in
    Array.init chunks (fun c ->
        let len = base + if c < rem then 1 else 0 in
        let lo = (c * base) + min c rem in
        (lo, len))

(* [partition] over contiguous row chunks, one runner task per chunk,
   merged in chunk order. The merge reconstitutes the one-chunk result
   exactly and independently of the layout: scanning chunks in index
   order (and, within a chunk, local groups in first-seen order) visits
   keys in global first-seen order, and appending member slices chunk by
   chunk preserves global input order. Workers only read code arrays;
   the merge runs after the barrier. *)
let partition_chunked ?(runner = seq_runner) ?chunk_sizes (st : store) cols
    rows =
  let n = Array.length rows in
  let layout = chunk_layout ?chunk_sizes ~chunks:runner.width n in
  if Array.length layout <= 1 then partition st cols rows
  else begin
    let local (lo, len) () =
      partition st cols (Array.sub rows lo len)
      |> List.map (Array.map (fun j -> lo + j))
    in
    let key members =
      Array.map (fun c -> st.codes.(c).(rows.(members.(0)))) cols
    in
    let index = Ktbl.create (2 * n) in
    let parts = ref [] in
    Array.iter
      (List.iter (fun members ->
           let k = key members in
           match Ktbl.find_opt index k with
           | Some slices -> slices := members :: !slices
           | None ->
             let slices = ref [ members ] in
             Ktbl.add index k slices;
             parts := slices :: !parts))
      (runner.run (Array.map local layout));
    List.rev_map (fun slices -> Array.concat (List.rev !slices)) !parts
  end

let group_by ?runner ?chunk_sizes tbl x =
  let cols = cols_of tbl x in
  let rows = visible_rows tbl in
  partition_chunked ?runner ?chunk_sizes tbl.store cols rows
  |> List.map (fun idxs ->
         let members = Array.map (fun j -> rows.(j)) idxs in
         let witness = tbl.store.tuples.(members.(0)) in
         let key = Tuple.project tbl.schema witness x in
         (key, { tbl with view = Rows members }))
  |> List.sort (fun (k1, _) (k2, _) -> Tuple.compare k1 k2)

(* Distinct projections in one pass: hash the code columns, keep one
   witness row per new key, never materialize subtables. *)
let project_distinct tbl x =
  let cols = cols_of tbl x in
  let rows = visible_rows tbl in
  let n = Array.length rows in
  let witnesses = ref [] in
  let k = Array.length cols in
  if n > 0 then
    if k = 0 then witnesses := [ rows.(0) ]
    else if k = 1 then begin
      let col = tbl.store.codes.(cols.(0)) in
      let index = Hashtbl.create (2 * n) in
      for j = 0 to n - 1 do
        let c = col.(rows.(j)) in
        if not (Hashtbl.mem index c) then begin
          Hashtbl.add index c ();
          witnesses := rows.(j) :: !witnesses
        end
      done
    end
    else begin
      let code_cols = Array.map (fun c -> tbl.store.codes.(c)) cols in
      let index = Ktbl.create (2 * n) in
      for j = 0 to n - 1 do
        let r = rows.(j) in
        let key = Array.map (fun col -> col.(r)) code_cols in
        if not (Ktbl.mem index key) then begin
          Ktbl.add index key ();
          witnesses := r :: !witnesses
        end
      done
    end;
  !witnesses
  |> List.map (fun r -> Tuple.project tbl.schema tbl.store.tuples.(r) x)
  |> List.sort Tuple.compare

let is_duplicate_free tbl =
  let all = Schema.attribute_set tbl.schema in
  List.length (project_distinct tbl all) = size tbl

(* ---------- selection and id-set views ---------- *)

let select tbl p =
  let n = size tbl in
  let buf = Array.make (max n 1) 0 in
  let m = ref 0 in
  for k = 0 to n - 1 do
    let r = row_at tbl k in
    if p tbl.store.ids.(r) tbl.store.tuples.(r) then begin
      buf.(!m) <- r;
      incr m
    end
  done;
  if !m = n then tbl else { tbl with view = Rows (Array.sub buf 0 !m) }

let select_eq tbl x key =
  select tbl (fun _ t -> Tuple.equal (Tuple.project tbl.schema t x) key)

let restrict tbl keep =
  let set = Hashtbl.create (2 * List.length keep) in
  List.iter (fun i -> Hashtbl.replace set i ()) keep;
  select tbl (fun i _ -> Hashtbl.mem set i)

let remove tbl gone =
  let set = Hashtbl.create (2 * List.length gone) in
  List.iter (fun i -> Hashtbl.replace set i ()) gone;
  select tbl (fun i _ -> not (Hashtbl.mem set i))

(* ---------- union ---------- *)

let union t1 t2 =
  if size t2 = 0 then t1
  else if size t1 = 0 then { t2 with schema = t1.schema }
  else begin
    let n1 = size t1 and n2 = size t2 in
    if t1.store == t2.store then begin
      (* Same backing store: merge the two sorted row slices. Store ids
         are unique, so a duplicate identifier is the same row index.
         This is the hot path of the common-lhs recursion (Opt_s_repair
         takes [union_all] of the groups at every level), so the merge
         works directly on the raw index arrays and finishes each
         exhausted side with a blit. *)
      let a1 = visible_rows t1 and a2 = visible_rows t2 in
      let ids = t1.store.ids in
      let merged = Array.make (n1 + n2) 0 in
      let k1 = ref 0 and k2 = ref 0 and m = ref 0 in
      while !k1 < n1 && !k2 < n2 do
        let r1 = Array.unsafe_get a1 !k1 and r2 = Array.unsafe_get a2 !k2 in
        let i1 = Array.unsafe_get ids r1 and i2 = Array.unsafe_get ids r2 in
        if i1 = i2 then
          invalid_arg (Printf.sprintf "Table.union: identifier %d in both" i1)
        else if i1 < i2 then begin
          Array.unsafe_set merged !m r1;
          incr k1
        end
        else begin
          Array.unsafe_set merged !m r2;
          incr k2
        end;
        incr m
      done;
      if !k1 < n1 then Array.blit a1 !k1 merged !m (n1 - !k1)
      else if !k2 < n2 then Array.blit a2 !k2 merged !m (n2 - !k2);
      { t1 with len = max t1.len t2.len; view = Rows merged }
    end
    else begin
      (* Distinct stores: materialize the id-sorted interleaving. Code
         columns copy verbatim when the pools are shared; otherwise the
         foreign side re-interns into t1's pool. *)
      let st1 = t1.store and st2 = t2.store in
      let arity = Array.length st1.codes in
      if Array.length st2.codes <> arity then
        invalid_arg "Table.union: schema arity mismatch";
      let shared_pool = st1.pool == st2.pool in
      let n' = n1 + n2 in
      let ids = Array.make n' 0 in
      let weights = Array.make n' 0.0 in
      let tuples = Array.make n' no_tuple in
      let codes = Array.init arity (fun _ -> Array.make n' 0) in
      let write m (src : store) r =
        ids.(m) <- src.ids.(r);
        weights.(m) <- src.weights.(r);
        tuples.(m) <- src.tuples.(r);
        if shared_pool || src == st1 then
          for c = 0 to arity - 1 do
            codes.(c).(m) <- src.codes.(c).(r)
          done
        else
          for c = 0 to arity - 1 do
            codes.(c).(m) <- Interner.intern st1.pool (Tuple.get src.tuples.(r) c)
          done
      in
      let k1 = ref 0 and k2 = ref 0 and m = ref 0 in
      while !k1 < n1 && !k2 < n2 do
        let i1 = id_at t1 !k1 and i2 = id_at t2 !k2 in
        if i1 = i2 then
          invalid_arg (Printf.sprintf "Table.union: identifier %d in both" i1)
        else if i1 < i2 then begin
          write !m st1 (row_at t1 !k1);
          incr k1
        end
        else begin
          write !m st2 (row_at t2 !k2);
          incr k2
        end;
        incr m
      done;
      while !k1 < n1 do
        write !m st1 (row_at t1 !k1);
        incr k1;
        incr m
      done;
      while !k2 < n2 do
        write !m st2 (row_at t2 !k2);
        incr k2;
        incr m
      done;
      let store = { pool = st1.pool; len = n'; ids; weights; tuples; codes } in
      { schema = t1.schema; store; len = n'; view = All }
    end
  end

(* Pairwise rounds of [union]: each row is copied once per round, so k
   operands cost O(n log k) where the left fold re-copies its
   accumulator k times. *)
let union_all schema tables =
  let rec pairs acc = function
    | t1 :: t2 :: rest -> pairs (union t1 t2 :: acc) rest
    | [ t ] -> List.rev (t :: acc)
    | [] -> List.rev acc
  in
  let rec rounds = function
    | [] -> empty schema
    | [ t ] -> union (empty schema) t
    | ts -> rounds (pairs [] ts)
  in
  rounds tables

(* ---------- updates (materializing) ---------- *)

let map_tuples tbl f =
  let n = size tbl in
  let store = new_store tbl.schema ~cap:(max n 1) in
  (* A mapped store starts a fresh prefix but keeps the shared pool so
     unchanged values reuse their codes. *)
  let store = { store with pool = tbl.store.pool } in
  for k = 0 to n - 1 do
    push store (id_at tbl k) (weight_at tbl k) (f (id_at tbl k) (tuple_at tbl k))
  done;
  { tbl with store; len = n; view = All }

let set_tuple tbl i tp =
  let k = pos_exn tbl i in
  check_row tbl.schema ~what:"Table.set_tuple" (weight_at tbl k) tp;
  let t' = rebuild tbl in
  let st = t'.store in
  st.tuples.(k) <- tp;
  Array.iteri
    (fun c col -> col.(k) <- Interner.intern st.pool (Tuple.get tp c))
    st.codes;
  t'

let map_weights tbl f =
  let t' = rebuild tbl in
  let st = t'.store in
  for k = 0 to st.len - 1 do
    let w = f st.ids.(k) st.weights.(k) in
    check_weight "Table.map_weights" w;
    st.weights.(k) <- w
  done;
  t'

(* ---------- repair-related distances ---------- *)

(* Walk two id-sorted visible sequences in lockstep. [on_left] fires for
   ids only in [t1], [on_both] for shared ids, [on_right] for ids only
   in [t2]. *)
let merge_iter t1 t2 ~on_left ~on_both ~on_right =
  let n1 = size t1 and n2 = size t2 in
  let k1 = ref 0 and k2 = ref 0 in
  while !k1 < n1 || !k2 < n2 do
    if !k1 >= n1 then begin
      on_right !k2;
      incr k2
    end
    else if !k2 >= n2 then begin
      on_left !k1;
      incr k1
    end
    else
      let i1 = id_at t1 !k1 and i2 = id_at t2 !k2 in
      if i1 = i2 then begin
        on_both !k1 !k2;
        incr k1;
        incr k2
      end
      else if i1 < i2 then begin
        on_left !k1;
        incr k1
      end
      else begin
        on_right !k2;
        incr k2
      end
  done

let is_subset_of s tbl =
  Schema.equal s.schema tbl.schema
  && size s <= size tbl
  &&
  if s.store == tbl.store then begin
    (* Shared store: identifiers determine rows, so inclusion of the
       row slices is inclusion of the tables. *)
    let ok = ref true in
    merge_iter s tbl
      ~on_left:(fun _ -> ok := false)
      ~on_both:(fun _ _ -> ())
      ~on_right:(fun _ -> ());
    !ok
  end
  else begin
    let ok = ref true in
    merge_iter s tbl
      ~on_left:(fun _ -> ok := false)
      ~on_both:(fun k1 k2 ->
        if
          not
            (Tuple.equal (tuple_at s k1) (tuple_at tbl k2)
            && weight_at s k1 = weight_at tbl k2)
        then ok := false)
      ~on_right:(fun _ -> ());
    !ok
  end

let is_update_of u tbl =
  Schema.equal u.schema tbl.schema
  && size u = size tbl
  &&
  let ok = ref true in
  merge_iter u tbl
    ~on_left:(fun _ -> ok := false)
    ~on_both:(fun k1 k2 -> if weight_at u k1 <> weight_at tbl k2 then ok := false)
    ~on_right:(fun _ -> ok := false);
  !ok

let dist_sub s tbl =
  if not (is_subset_of s tbl) then invalid_arg "Table.dist_sub: not a subset";
  (* Accumulate in [tbl]'s id order — the same summation order as the
     seed's fold, so distances stay bit-identical. *)
  let acc = ref 0.0 in
  merge_iter s tbl
    ~on_left:(fun _ -> ())
    ~on_both:(fun _ _ -> ())
    ~on_right:(fun k2 -> acc := !acc +. weight_at tbl k2);
  !acc

let dist_upd u tbl =
  if not (is_update_of u tbl) then invalid_arg "Table.dist_upd: not an update";
  let acc = ref 0.0 in
  merge_iter u tbl
    ~on_left:(fun _ -> ())
    ~on_both:(fun k1 k2 ->
      acc :=
        !acc
        +. weight_at tbl k2
           *. float_of_int (Tuple.hamming (tuple_at tbl k2) (tuple_at u k1)))
    ~on_right:(fun _ -> ());
  !acc

(* ---------- domains ---------- *)

let distinct_codes_of_col tbl col =
  let rows = visible_rows tbl in
  let codes = tbl.store.codes.(col) in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun r ->
      let c = codes.(r) in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        out := c :: !out
      end)
    rows;
  !out

let active_domain tbl a =
  let col = Schema.index_of tbl.schema a in
  distinct_codes_of_col tbl col
  |> List.map (Interner.value tbl.store.pool)
  |> List.sort Value.compare

let all_values tbl =
  let arity = Array.length tbl.store.codes in
  List.init arity (fun col -> distinct_codes_of_col tbl col)
  |> List.concat
  |> List.map (Interner.value tbl.store.pool)
  |> List.sort_uniq Value.compare

(* ---------- equality and display ---------- *)

let equal t1 t2 =
  Schema.equal t1.schema t2.schema
  && size t1 = size t2
  &&
  let n = size t1 in
  let same_rows =
    t1.store == t2.store
    &&
    let rec go k = k >= n || (row_at t1 k = row_at t2 k && go (k + 1)) in
    go 0
  in
  same_rows
  ||
  let rec go k =
    k >= n
    || (id_at t1 k = id_at t2 k
        && weight_at t1 k = weight_at t2 k
        && Tuple.equal (tuple_at t1 k) (tuple_at t2 k)
        && go (k + 1))
  in
  go 0

let pp ppf tbl =
  Fmt.pf ppf "@[<v>%a@," Schema.pp tbl.schema;
  iter (fun i t w -> Fmt.pf ppf "  %3d | %a | w=%g@," i Tuple.pp t w) tbl;
  Fmt.pf ppf "@]"

let to_string tbl = Fmt.str "%a" pp tbl

(* ---------- zero-copy view access ---------- *)

module View = struct
  let length = size
  let id = id_at
  let tuple = tuple_at
  let weight = weight_at
  let ids_array tbl = Array.init (size tbl) (id_at tbl)

  let of_positions tbl positions =
    let n = Array.length positions in
    for k = 1 to n - 1 do
      if positions.(k - 1) >= positions.(k) then
        invalid_arg "Table.View.of_positions: positions must strictly increase"
    done;
    if n > 0 && positions.(n - 1) >= size tbl then
      invalid_arg "Table.View.of_positions: position out of range";
    { tbl with view = Rows (Array.map (row_at tbl) positions) }

  let group_within ?runner tbl positions x =
    let cols = cols_of tbl x in
    let rows = Array.map (row_at tbl) positions in
    partition_chunked ?runner tbl.store cols rows
    |> List.map (fun idxs -> Array.map (fun j -> positions.(j)) idxs)

  let groups tbl x =
    let cols = cols_of tbl x in
    let rows = visible_rows tbl in
    partition tbl.store cols rows
    |> List.map (fun idxs ->
           let witness = tbl.store.tuples.(rows.(idxs.(0))) in
           (Tuple.project tbl.schema witness x, idxs))
    |> List.sort (fun (k1, _) (k2, _) -> Tuple.compare k1 k2)
end
