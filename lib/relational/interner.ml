(* Value interning: an append-only dictionary assigning each distinct
   [Value.t] a dense integer code. Codes are handed out in first-seen
   order, so equal values always share a code and distinct values never
   do. A pool is shared between a columnar store and every store derived
   from it, which lets derived stores copy code columns verbatim instead
   of re-hashing the values. *)

module H = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Pools are shared across every store derived from one table, and under
   a domain pool those stores can be decoded from worker domains while
   the owner keeps appending. A single mutex over the append/decode paths
   makes the pool domain-safe; the loops that run on worker domains (a
   top-level block's plan refinement, the conflict graph's edge shards)
   work purely on code arrays and never take it, so the lock is
   uncontended in practice. *)
type t = {
  codes : int H.t;
  mutable values : Value.t array;
  mutable n : int;
  lock : Mutex.t;
}

let create ?(capacity = 64) () =
  { codes = H.create capacity;
    values = Array.make 16 Value.Unit;
    n = 0;
    lock = Mutex.create () }

let locked p f =
  Mutex.lock p.lock;
  match f () with
  | v ->
    Mutex.unlock p.lock;
    v
  | exception e ->
    Mutex.unlock p.lock;
    raise e

let size p = locked p (fun () -> p.n)

let intern p v =
  locked p (fun () ->
      match H.find_opt p.codes v with
      | Some c -> c
      | None ->
        let c = p.n in
        if c = Array.length p.values then begin
          let grown = Array.make (2 * c) Value.Unit in
          Array.blit p.values 0 grown 0 c;
          p.values <- grown
        end;
        p.values.(c) <- v;
        p.n <- c + 1;
        H.add p.codes v c;
        c)

let code_opt p v = locked p (fun () -> H.find_opt p.codes v)

let value p c =
  locked p (fun () ->
      if c < 0 || c >= p.n then
        invalid_arg "Interner.value: code out of range";
      p.values.(c))
