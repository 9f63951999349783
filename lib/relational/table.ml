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

let check_arity what schema n =
  if n <> Schema.arity schema then
    invalid_arg (what ^ ": tuple arity does not match schema")

let check_row schema ?(what = "Table.add") weight tuple =
  check_weight what weight;
  check_arity what schema (Tuple.arity tuple)

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
   fold over [add]) into code columns, which become the store. *)
module Builder = struct
  type t = {
    b_schema : Schema.t;
    b_pool : Interner.t;
    mutable b_ids : id array;
    mutable b_weights : float array;
    mutable b_codes : int array array; (* b_codes.(col).(row) *)
    mutable b_n : int;
    mutable b_max : id; (* the largest id so far, once [b_n > 0] *)
    mutable seen : (id, unit) Hashtbl.t option;
        (* [None] while every id has been above the previous one: the
           ids are then distinct, and the set is only built, from
           [b_ids], at the first id that is not. *)
  }

  let create ?(capacity = 16) schema =
    let cap = max capacity 1 in
    {
      b_schema = schema;
      b_pool = Interner.create ();
      b_ids = Array.make cap 0;
      b_weights = Array.make cap 0.0;
      b_codes = Array.init (Schema.arity schema) (fun _ -> Array.make cap 0);
      b_n = 0;
      b_max = 0;
      seen = None;
    }

  let length b = b.b_n
  let pool b = b.b_pool

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

  let grow b =
    let cap = 2 * Array.length b.b_ids in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.b_n;
      a'
    in
    b.b_ids <- extend b.b_ids 0;
    b.b_weights <- extend b.b_weights 0.0;
    b.b_codes <- Array.map (fun col -> extend col 0) b.b_codes

  let add_codes ?id ?(weight = 1.0) b codes =
    check_weight "Table.add" weight;
    check_arity "Table.add" b.b_schema (Array.length codes);
    let n = b.b_n in
    let i =
      match id with Some i -> i | None -> if n = 0 then 1 else b.b_max + 1
    in
    if Option.is_some b.seen || (n > 0 && i <= b.b_max) then begin
      let seen = seen_set b in
      if Hashtbl.mem seen i then
        invalid_arg (Printf.sprintf "Table.add: duplicate identifier %d" i);
      Hashtbl.add seen i ()
    end;
    if n = Array.length b.b_ids then grow b;
    b.b_ids.(n) <- i;
    b.b_weights.(n) <- weight;
    for c = 0 to Array.length codes - 1 do
      b.b_codes.(c).(n) <- codes.(c)
    done;
    if n = 0 || i > b.b_max then b.b_max <- i;
    b.b_n <- n + 1

  let add ?id ?weight b tuple =
    add_codes ?id ?weight b
      (Array.init (Tuple.arity tuple) (fun c ->
           Interner.intern b.b_pool (Tuple.get tuple c)))

  (* The columns become the store as they are when the ids came in
     increasing order and fill the builder's room; otherwise spare room
     is cut off, or ids out of order are permuted into id order. Each
     row's tuple is decoded from one snapshot of the pool, so the cells
     that hold one value share one [Value.t]. *)
  let build b =
    let n = b.b_n in
    let fit a = if Array.length a = n then a else Array.sub a 0 n in
    let ids, weights, codes =
      match b.seen with
      | None -> (fit b.b_ids, fit b.b_weights, Array.map fit b.b_codes)
      | Some _ ->
        let order = Array.init n Fun.id in
        Array.sort (fun k1 k2 -> Int.compare b.b_ids.(k1) b.b_ids.(k2)) order;
        let permute a = Array.map (fun k -> a.(k)) order in
        (permute b.b_ids, permute b.b_weights, Array.map permute b.b_codes)
    in
    let values = Interner.to_array b.b_pool in
    let arity = Array.length codes in
    let cells = Array.make arity Value.Unit in
    let tuples = Array.make n no_tuple in
    for r = 0 to n - 1 do
      for c = 0 to arity - 1 do
        cells.(c) <- values.(codes.(c).(r))
      done;
      tuples.(r) <- Tuple.of_array cells
    done;
    let store = { pool = b.b_pool; len = n; ids; weights; tuples; codes } in
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

(* ---------- runners ---------- *)

type runner = {
  run : 'a. (unit -> 'a) array -> 'a array;
  width : int;  (* shard count: how many tasks a caller splits work into
                   (a pool's domain count) *)
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

(* ---------- grouping on interned code columns ---------- *)

let cols_of tbl x = Array.of_list (Schema.indices_of tbl.schema x)

(* The one classifier behind every grouping. Row [p] of [0, n) is store
   row [p] of an [All] view and [a.(p)] of [Rows a]; two rows share a
   class when they have the same prior class ([classes.(p)], all 0 when
   absent) and the same codes in columns [cols]. Classes are numbered
   0, 1, ... in order of first row. Open addressing over class numbers:
   a slot holds the class whose key is (its prior class, the codes of
   its first row), so a probe compares in place and no key is ever
   built. The table grows with the class count, kept at most half full.
   Returns each row's class, the class count, and the first store row
   of each class. *)
let classify (st : store) ?classes cols view n =
  let cols = Array.map (fun c -> st.codes.(c)) cols in
  let k = Array.length cols in
  let hash c r =
    let h = ref c in
    for i = 0 to k - 1 do
      h := (!h * 0x100000001b3) lxor cols.(i).(r)
    done;
    let h = !h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)
  in
  let first_row = ref (Array.make 8 0) and old_class = ref (Array.make 8 0) in
  let slots = ref (Array.make 16 (-1)) and count = ref 0 in
  let same g r c =
    !old_class.(g) = c
    &&
    let r' = !first_row.(g) and i = ref 0 in
    while !i < k && cols.(!i).(r') = cols.(!i).(r) do
      incr i
    done;
    !i = k
  in
  let rec free sl s =
    if sl.(s) < 0 then s else free sl ((s + 1) land (Array.length sl - 1))
  in
  let grow () =
    let cap = 2 * Array.length !first_row in
    let extend a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 !count;
      b
    in
    first_row := extend !first_row;
    old_class := extend !old_class;
    let sl = Array.make (2 * cap) (-1) in
    for g = 0 to !count - 1 do
      sl.(free sl (hash !old_class.(g) !first_row.(g) land ((2 * cap) - 1)))
      <- g
    done;
    slots := sl
  in
  let out = Array.make n 0 in
  for p = 0 to n - 1 do
    let r = match view with All -> p | Rows a -> a.(p) in
    let c = match classes with None -> 0 | Some a -> a.(p) in
    let h = hash c r in
    let sl = !slots in
    let s = ref (h land (Array.length sl - 1)) in
    while sl.(!s) >= 0 && not (same sl.(!s) r c) do
      s := (!s + 1) land (Array.length sl - 1)
    done;
    if sl.(!s) >= 0 then out.(p) <- sl.(!s)
    else begin
      let g = !count in
      if g = Array.length !first_row then grow ();
      let sl = !slots in
      sl.(free sl (h land (Array.length sl - 1))) <- g;
      !first_row.(g) <- r;
      !old_class.(g) <- c;
      count := g + 1;
      out.(p) <- g
    end
  done;
  (out, !count, !first_row)

(* Rows [0, n) of [view] (as in [classify]) grouped by the codes of
   [cols]: arrays of row numbers, groups in first-seen order, members in
   input order. One classifying pass and one bucketing pass: O(n) for
   any number of groups. *)
let partition st cols view n =
  let cls, count, _ = classify st cols view n in
  let sizes = Array.make count 0 in
  Array.iter (fun g -> sizes.(g) <- sizes.(g) + 1) cls;
  let out = Array.map (fun c -> Array.make c 0) sizes in
  let fill = Array.make count 0 in
  for j = 0 to n - 1 do
    let g = cls.(j) in
    out.(g).(fill.(g)) <- j;
    fill.(g) <- fill.(g) + 1
  done;
  Array.to_list out

let group_by tbl x =
  partition tbl.store (cols_of tbl x) tbl.view (size tbl)
  |> List.map (fun idxs ->
         let members =
           match tbl.view with
           | All -> idxs
           | Rows a -> Array.map (fun j -> a.(j)) idxs
         in
         let witness = tbl.store.tuples.(members.(0)) in
         let key = Tuple.project tbl.schema witness x in
         (key, { tbl with view = Rows members }))
  |> List.sort (fun (k1, _) (k2, _) -> Tuple.compare k1 k2)

(* Distinct projections: one classifying pass, then the first row of
   each class; no subtable is built. *)
let project_distinct tbl x =
  let _, count, first =
    classify tbl.store (cols_of tbl x) tbl.view (size tbl)
  in
  List.init count (fun g ->
      Tuple.project tbl.schema tbl.store.tuples.(first.(g)) x)
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

let visible_rows tbl =
  match tbl.view with
  | Rows a -> a
  | All -> Array.init tbl.len (fun k -> k)

let union t1 t2 =
  if size t2 = 0 then t1
  else if size t1 = 0 then { t2 with schema = t1.schema }
  else begin
    let n1 = size t1 and n2 = size t2 in
    if t1.store == t2.store then begin
      (* Same backing store: merge the two sorted row slices. Store ids
         are unique, so a duplicate identifier is the same row index.
         This is the hot path of a common-lhs combine (Opt_s_repair takes
         [union_all] of its top-level blocks), so the merge works
         directly on the raw index arrays and finishes each exhausted
         side with a blit. *)
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

(* The one mapping loop: [f k t] is the new tuple of visible position
   [k], whose tuple is [t]. A mapped store starts a fresh prefix but
   keeps the shared pool. A cell that is physically the source cell's
   value keeps the source's code, which interning it again would
   return, without the pool's lock; only the changed cells are
   interned. *)
let map_at tbl f =
  let n = size tbl in
  let src = tbl.store in
  let store = { (new_store tbl.schema ~cap:(max n 1)) with pool = src.pool } in
  let arity = Array.length src.codes in
  for k = 0 to n - 1 do
    let r = row_at tbl k in
    let t = src.tuples.(r) in
    let t' = f k t in
    store.ids.(k) <- src.ids.(r);
    store.weights.(k) <- src.weights.(r);
    store.tuples.(k) <- t';
    for c = 0 to arity - 1 do
      let v = Tuple.get t' c in
      store.codes.(c).(k) <-
        (if v == Tuple.get t c then src.codes.(c).(r)
         else Interner.intern store.pool v)
    done;
    store.len <- k + 1
  done;
  { tbl with store; len = n; view = All }

let map_tuples tbl f = map_at tbl (fun k t -> f (id_at tbl k) t)

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
  (* Accumulate in [tbl]'s id order, as [dist_sub] does. An update has
     [tbl]'s ids, so position [k] is the same tuple in both; with one
     pool, equal codes are equal values, so a cell is compared by its
     code, otherwise by its value. *)
  let acc = ref 0.0 in
  let add k d = acc := !acc +. (weight_at tbl k *. float_of_int d) in
  (if u.store.pool == tbl.store.pool then begin
     let cu = u.store.codes and ct = tbl.store.codes in
     for k = 0 to size tbl - 1 do
       let ru = row_at u k and rt = row_at tbl k in
       let d = ref 0 in
       for c = 0 to Array.length ct - 1 do
         if cu.(c).(ru) <> ct.(c).(rt) then incr d
       done;
       add k !d
     done
   end
   else
     for k = 0 to size tbl - 1 do
       add k (Tuple.hamming (tuple_at tbl k) (tuple_at u k))
     done);
  !acc

(* ---------- domains ---------- *)

let distinct_codes_of_col tbl col =
  let _, count, first = classify tbl.store [| col |] tbl.view (size tbl) in
  let codes = tbl.store.codes.(col) in
  List.init count (fun g -> codes.(first.(g)))

let active_domain tbl a =
  let col = Schema.index_of tbl.schema a in
  distinct_codes_of_col tbl col
  |> List.map (Interner.value tbl.store.pool)
  |> List.sort Value.compare

(* One pass marks the codes the visible rows hold; only the marked
   values are decoded, and nothing is sorted. *)
let fresh_supply tbl =
  let st = tbl.store in
  let used = Bytes.make (Interner.size st.pool) '\000' in
  let mark col r = Bytes.set used col.(r) '\001' in
  Array.iter
    (fun col ->
      match tbl.view with
      | All ->
        for r = 0 to tbl.len - 1 do
          mark col r
        done
      | Rows a -> Array.iter (mark col) a)
    st.codes;
  let values = ref [] in
  Bytes.iteri
    (fun c m -> if m <> '\000' then values := Interner.value st.pool c :: !values)
    used;
  Value.Supply.starting_above !values

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
  let map = map_at

  let of_positions tbl positions =
    let n = Array.length positions in
    for k = 1 to n - 1 do
      if positions.(k - 1) >= positions.(k) then
        invalid_arg "Table.View.of_positions: positions must strictly increase"
    done;
    if n > 0 && positions.(n - 1) >= size tbl then
      invalid_arg "Table.View.of_positions: position out of range";
    { tbl with view = Rows (Array.map (row_at tbl) positions) }

  let group_within tbl positions x =
    let rows = Array.map (row_at tbl) positions in
    partition tbl.store (cols_of tbl x) (Rows rows) (Array.length rows)
    |> List.map (fun idxs -> Array.map (fun j -> positions.(j)) idxs)

  let groups tbl x =
    partition tbl.store (cols_of tbl x) tbl.view (size tbl)
    |> List.map (fun idxs ->
           let witness = tuple_at tbl idxs.(0) in
           (Tuple.project tbl.schema witness x, idxs))
    |> List.sort (fun (k1, _) (k2, _) -> Tuple.compare k1 k2)

  let refine tbl classes x =
    let n = size tbl in
    if Array.length classes <> n then
      invalid_arg "Table.View.refine: one class per visible position";
    let out, count, _ =
      classify tbl.store ~classes (cols_of tbl x) tbl.view n
    in
    (out, count)
end
