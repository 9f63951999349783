(** Append-only interning of {!Value.t} into dense integer codes.

    Equal values (under {!Value.equal}) always receive the same code and
    distinct values never share one, so comparing codes with [(=)] is
    equivalent to comparing the underlying values. Codes are dense:
    the [n]-th distinct value interned gets code [n - 1]. Pools only
    grow; they are shared freely between the columnar stores derived
    from one another (see {!Table}).

    A pool is one open-addressing table over codes. An [Int] is hashed
    from its int, so {!intern_int} finds or assigns an int's code
    without building a {!Value.t}; it probes the same slots as
    {!intern} does for [Int i].

    Pools are domain-safe: every entry point takes an internal mutex,
    so concurrent [intern]/[value] calls from a {!Repair_par.Pool}
    worker and the owning domain cannot observe a torn append. Code
    assignment order (and thus the codes themselves) still depends on
    call order, so deterministic parallel drivers only {e read} existing
    codes from workers and leave interning to the orchestrating
    domain. *)

type t

(** [create ()] is an empty pool. *)
val create : unit -> t

(** Number of distinct values interned so far. *)
val size : t -> int

(** [intern p v] returns the code of [v], assigning the next dense code
    on first sight. *)
val intern : t -> Value.t -> int

(** [intern_int p i] is [intern p (Value.Int i)], without allocating
    the value unless [i] is new. *)
val intern_int : t -> int -> int

(** [code_opt p v] is [v]'s code if it has been interned. *)
val code_opt : t -> Value.t -> int option

(** [value p c] decodes a code.
    @raise Invalid_argument if [c] was never assigned. *)
val value : t -> int -> Value.t

(** [to_array p] is a fresh array of the values of codes [0 .. size p - 1],
    in code order: a bulk {!value}. *)
val to_array : t -> Value.t array
