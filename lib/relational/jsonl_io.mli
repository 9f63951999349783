(** JSON-lines import/export for tables.

    One JSON object per line; attribute names are keys. Two reserved keys
    carry the repair metadata: [#id] (integer identifier) and [#weight]
    (positive, finite number), both optional on input (ids then run 1..n, weights
    default to 1). Values map as: JSON numbers to {!Value.Int} (integers
    only), strings to {!Value.Str}, and the string forms understood by
    {!Value.of_string} apply. Nested arrays/objects, floats, booleans and
    null are rejected — the paper's data model is first-normal-form with a
    flat value domain.

    Each trimmed, non-blank line is parsed by
    {!Repair_obs.Json.of_string}, so the syntax is that parser's; this
    module maps flat objects to rows, and the first object's keys fix
    the schema. *)

(** [parse_string ?file ~name s] reads JSON-lines text. [file] (default
    ["<jsonl>"]) labels error values.

    @raise Repair_runtime.Repair_error.Error on malformed input or schema
    drift between lines — a [Parse] error carrying the source name and
    1-based line number, or [Schema_mismatch]/[Io] as applicable. *)
val parse_string : ?file:string -> name:string -> string -> Table.t

(** [parse_result ?file ~name s] is {!parse_string} with the error
    returned instead of raised. *)
val parse_result :
  ?file:string ->
  name:string ->
  string ->
  (Table.t, Repair_runtime.Repair_error.t) result

(** [to_string ?with_meta tbl] renders one object per tuple; [with_meta]
    (default [true]) includes the [#id] and [#weight] keys. *)
val to_string : ?with_meta:bool -> Table.t -> string

(** [load ~name path] parses the file at [path], read with
    {!Repair_runtime.Io_fault.read_file}. *)
val load : name:string -> string -> Table.t
