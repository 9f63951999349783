(** Minimal CSV reading/writing for tables.

    The format is: a header row of attribute names, then one row per tuple.
    Two optional reserved columns are recognized in the header: [#id] (tuple
    identifier, integer) and [#weight] (positive, finite float). When
    absent, ids are assigned 1..n and weights default to 1. Values are
    parsed with {!Value.of_string}.

    The dialect, exactly:
    - a record ends at a newline outside quotes; a CR outside quotes is
      dropped, so CRLF line ends read like LF;
    - a record of blanks only (spaces, tabs, form feeds, CRs) is skipped
      and not counted as a line, so error line numbers count the
      records read;
    - a quote opens a quoted run anywhere in a field, not only at its
      start; inside the run, commas and newlines are kept and a doubled
      quote is a literal quote (CRs between the two quotes lie outside
      the run and are dropped);
    - a header names [#id] and [#weight] at most once each; a repeated
      one makes every row an arity error;
    - on output, fields containing a comma, a quote, a newline or a CR
      are double-quoted, with quotes doubled.

    Malformed input is reported as a structured
    {!Repair_runtime.Repair_error.t} carrying the file (or pseudo-source)
    name and the 1-based line number: [Parse] for malformed records,
    [Schema_mismatch] for bad headers (e.g. duplicate attributes), [Io]
    for file-system failures. Raising entry points throw
    {!Repair_runtime.Repair_error.Error}; [_result] variants return the
    error. *)

(** [parse_string ?file ~name s] parses CSV text into a table over a
    schema named [name]. [file] (default ["<csv>"]) labels error values.

    @raise Repair_runtime.Repair_error.Error on malformed input. *)
val parse_string : ?file:string -> name:string -> string -> Table.t

(** [parse_result ?file ~name s] is {!parse_string} with the error
    returned instead of raised. *)
val parse_result :
  ?file:string ->
  name:string ->
  string ->
  (Table.t, Repair_runtime.Repair_error.t) result

(** [to_string ?with_meta tbl] renders a table. With [with_meta] (default
    [true]) the [#id] and [#weight] columns are included. *)
val to_string : ?with_meta:bool -> Table.t -> string

(** [load ~name path] parses the file at [path], read with
    {!Repair_runtime.Io_fault.read_file}. *)
val load : name:string -> string -> Table.t
