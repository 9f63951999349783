(** Attribute values.

    The paper assumes a countably infinite domain [Val] of attribute values.
    Beyond plain integers and strings we provide:

    - {!constructor:Unit}: the distinguished constant [⊙] used by the
      fact-wise reductions of the paper's appendix (Lemmas A.14-A.18);
    - {!constructor:Pair} and {!constructor:Triple}: value tupling, used by
      the same reductions to build values such as [⟨a,c⟩];
    - {!constructor:Fresh}: fresh constants drawn from the infinite domain,
      needed by update repairs (Proposition 4.4 updates cells of deleted
      tuples to fresh constants, and Figure 1(e) uses the fresh value
      [F01]). *)

type t =
  | Unit  (** the distinguished constant [⊙] *)
  | Int of int
  | Str of string
  | Pair of t * t
  | Triple of t * t * t
  | Fresh of int  (** [Fresh i] is the [i]-th fresh constant *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val int : int -> t
val str : string -> t
val pair : t -> t -> t
val triple : t -> t -> t -> t

(** [of_string s] parses the external syntax used by the CSV reader: an
    integer literal becomes [Int], the token ["_|_"] becomes [Unit], a token
    of the form ["$n"] becomes [Fresh n], anything else becomes [Str]. *)
val of_string : string -> t

(** [of_substring s pos len] is [of_string (String.sub s pos len)]; a
    plain decimal is read by {!decimal}, without copying.
    @raise Invalid_argument if [pos] and [len] are not a valid range of
    [s]. *)
val of_substring : string -> int -> int -> t

(** [decimal s pos len] is the int spelled by the [len] bytes of [s] from
    [pos] when they are a plain decimal: an optional ['-'] and 1 to 18
    digits, which cannot overflow. On any other bytes it is [min_int],
    which no plain decimal spells; {!of_substring} then reads them as
    {!of_string} does. A plain decimal [d] is [of_string d = Int
    (decimal d 0 (String.length d))].
    @raise Invalid_argument if [pos] and [len] are not a valid range of
    [s]. *)
val decimal : string -> int -> int -> int

(** Stateful supplies of fresh constants, guaranteed not to collide with any
    value already present in a given collection (fresh constants are tagged
    with their own constructor, so they can only collide with other fresh
    constants). *)
module Supply : sig
  type value := t
  type t

  (** [create ()] is a supply starting at [Fresh 0]. *)
  val create : unit -> t

  (** [starting_above vs] is a supply whose constants are distinct from every
      fresh constant occurring (at any nesting depth) in [vs]. *)
  val starting_above : value list -> t

  (** [next s] draws the next fresh constant. *)
  val next : t -> value
end
