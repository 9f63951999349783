(** The streaming delta log (DESIGN §16): one JSONL line per update.

    - [{"op":"insert","tuple":["1","2"],"weight":2.0,"id":7}] — [weight]
      defaults to [1.0] and must be positive and finite; [id] defaults to one above the largest id the
      session has seen. Tuple cells are strings (decoded exactly like CSV
      cells: integer literals, ["_|_"], ["$n"], anything else a string)
      or bare JSON integers.
    - [{"op":"delete","id":7}]

    Inserted ids must exceed every id already seen by the session —
    identifiers are never reused, which is what makes cached block
    results (keyed by member-id slice) sound forever. *)

open Repair_relational

type t =
  | Insert of { id : Table.id option; weight : float; values : Value.t list }
  | Delete of { id : Table.id }

(** [parse ?line s] decodes one JSONL delta line.
    @raise Repair_runtime.Repair_error.Error
      ([Parse], source ["<delta>"], carrying [line]) on malformed
      input. *)
val parse : ?line:int -> string -> t

(** [to_line d] renders the delta back to one JSONL line ([parse]'s
    inverse for the values the generators produce). *)
val to_line : t -> string

val pp : Format.formatter -> t -> unit
