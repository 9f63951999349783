(* Value interning: an append-only dictionary assigning each distinct
   [Value.t] a dense integer code. Codes are handed out in first-seen
   order, so equal values always share a code and distinct values never
   do. A pool is shared between a columnar store and every store derived
   from it, which lets derived stores copy code columns verbatim instead
   of re-hashing the values.

   The dictionary is one open-addressing table over codes, the scheme
   [Table.classify] uses for classes: a slot holds the code of the value
   hashed to it (or -1), so a probe compares [values.(code)] in place and
   no key is stored twice. An [Int] is hashed from its int and a [Str]
   from its bytes, so [intern_int] finds an int's code without building
   a [Value.t]; only a new int allocates one. *)

(* Pools are shared across every store derived from one table, and under
   a domain pool those stores can be decoded from worker domains while
   the owner keeps appending. A single mutex over the append/decode paths
   makes the pool domain-safe; the loops that run on worker domains (a
   top-level block's plan refinement, the conflict graph's edge shards)
   work purely on code arrays and never take it, so the lock is
   uncontended in practice. *)
type t = {
  mutable values : Value.t array; (* [values.(c)] is code [c]'s value *)
  mutable slots : int array; (* a code or -1; twice [values]' length *)
  mutable n : int;
  lock : Mutex.t;
}

let create () =
  { values = Array.make 16 Value.Unit;
    slots = Array.make 32 (-1);
    n = 0;
    lock = Mutex.create () }

let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

let hash = function
  | Value.Int i -> mix i
  | Value.Str s -> mix (Hashtbl.hash s)
  | v -> mix (Value.hash v)

(* The slot holding [v]'s code, or the free slot where its probe ends,
   as [-1 - slot]. *)
let rec probe p v s =
  let c = Array.unsafe_get p.slots s in
  if c < 0 then -1 - s
  else if Value.equal (Array.unsafe_get p.values c) v then c
  else probe p v ((s + 1) land (Array.length p.slots - 1))

(* [probe] for [Int i], reading the int out of each candidate. *)
let rec probe_int p i s =
  let c = Array.unsafe_get p.slots s in
  if c < 0 then -1 - s
  else
    match Array.unsafe_get p.values c with
    | Value.Int j when j = i -> c
    | _ -> probe_int p i ((s + 1) land (Array.length p.slots - 1))

let rec free slots s =
  if slots.(s) < 0 then s else free slots ((s + 1) land (Array.length slots - 1))

(* Double the code capacity and re-place every code; the table stays at
   most half full. *)
let grow p =
  let cap = 2 * Array.length p.values in
  let values = Array.make cap Value.Unit in
  Array.blit p.values 0 values 0 p.n;
  let slots = Array.make (2 * cap) (-1) in
  for c = 0 to p.n - 1 do
    slots.(free slots (hash values.(c) land ((2 * cap) - 1))) <- c
  done;
  p.values <- values;
  p.slots <- slots

(* Give [v], whose probe from hash [h] ended at free slot [s], the next
   code. *)
let append p v h s =
  let c = p.n in
  let s =
    if c < Array.length p.values then s
    else begin
      grow p;
      free p.slots (h land (Array.length p.slots - 1))
    end
  in
  p.values.(c) <- v;
  p.slots.(s) <- c;
  p.n <- c + 1;
  c

let add_int p i =
  let h = mix i in
  let r = probe_int p i (h land (Array.length p.slots - 1)) in
  if r >= 0 then r else append p (Value.Int i) h (-1 - r)

let add p v =
  match v with
  | Value.Int i -> add_int p i
  | v ->
    let h = hash v in
    let r = probe p v (h land (Array.length p.slots - 1)) in
    if r >= 0 then r else append p v h (-1 - r)

let find p v =
  let r = probe p v (hash v land (Array.length p.slots - 1)) in
  if r >= 0 then Some r else None

let decode p c =
  if c < 0 || c >= p.n then invalid_arg "Interner.value: code out of range";
  p.values.(c)

(* [f p x] under the pool's lock. [f] takes [x] as an argument rather
   than closing over it, so no closure is made per call. *)
let locked p f x =
  Mutex.lock p.lock;
  match f p x with
  | r ->
    Mutex.unlock p.lock;
    r
  | exception e ->
    Mutex.unlock p.lock;
    raise e

let size p = locked p (fun p () -> p.n) ()
let intern p v = locked p add v
let intern_int p i = locked p add_int i
let code_opt p v = locked p find v
let value p c = locked p decode c
let to_array p = locked p (fun p () -> Array.sub p.values 0 p.n) ()
