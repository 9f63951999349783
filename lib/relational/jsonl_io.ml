(* JSON-lines tables: each non-blank line goes through Repair_obs.Json,
   and a flat object whose members are integers or strings becomes a
   row. *)

module Json = Repair_obs.Json
module Repair_error = Repair_runtime.Repair_error

let parse_string ?(file = "<jsonl>") ~name text =
  let parse_err ?line fmt =
    Fmt.kstr
      (fun detail ->
        Repair_error.raise_error (Parse { source = file; line; detail }))
      fmt
  in
  (* Keep original 1-based line numbers through the blank-line filter so
     errors point at the offending line of the input. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  if lines = [] then parse_err "empty input";
  (* Every line is read and its values checked before any row is built,
     so a malformed line reports ahead of a schema error on an earlier
     one. *)
  let row (line_no, line) =
    let scalar (k, v) =
      match v with
      | Json.Int i -> (k, `Int i)
      | Json.String s -> (k, `Str s)
      | Json.Float _ -> parse_err ~line:line_no "floats are not supported"
      | Json.Null | Json.Bool _ | Json.List _ | Json.Obj _ ->
        parse_err ~line:line_no "only strings and integers are supported"
    in
    match Json.of_string line with
    | Ok (Json.Obj members) -> (line_no, List.map scalar members)
    | Ok _ -> parse_err ~line:line_no "expected an object"
    | Error m -> parse_err ~line:line_no "%s" m
  in
  let objects = List.map row lines in
  let attrs =
    List.filter_map
      (fun (k, _) -> if k = "#id" || k = "#weight" then None else Some k)
      (snd (List.hd objects))
  in
  if attrs = [] then parse_err ~line:1 "no attribute keys";
  let schema =
    try Schema.make name attrs
    with Invalid_argument m ->
      Repair_error.raise_error (Schema_mismatch { source = file; detail = m })
  in
  let builder = Table.Builder.create ~capacity:(List.length objects) schema in
  List.iter
    (fun (line_no, fields) ->
      let id =
        match List.assoc_opt "#id" fields with
        | Some (`Int i) -> Some i
        | Some (`Str _) -> parse_err ~line:line_no "#id must be an integer"
        | None -> None
      in
      let weight =
        match List.assoc_opt "#weight" fields with
        | Some (`Int i) -> float_of_int i
        | Some (`Str s) -> (
          match float_of_string_opt s with
          | Some f -> f
          | None -> parse_err ~line:line_no "bad #weight")
        | None -> 1.0
      in
      let values =
        List.map
          (fun a ->
            match List.assoc_opt a fields with
            | Some (`Int i) -> Value.Int i
            | Some (`Str s) -> Value.of_string s
            | None -> parse_err ~line:line_no "missing attribute %s" a)
          attrs
      in
      try Table.Builder.add ?id ~weight builder (Tuple.make values)
      with Invalid_argument m -> parse_err ~line:line_no "%s" m)
    objects;
  Table.Builder.build builder

let parse_result ?file ~name text =
  Repair_error.guard (fun () -> parse_string ?file ~name text)

let to_string ?(with_meta = true) tbl =
  let buf = Buffer.create 256 in
  let attrs = Schema.attributes (Table.schema tbl) in
  Table.iter
    (fun i t w ->
      Buffer.add_char buf '{';
      if with_meta then begin
        Printf.bprintf buf "\"#id\": %d, \"#weight\": " i;
        if Float.is_integer w then
          Buffer.add_string buf (string_of_int (int_of_float w))
        else Printf.bprintf buf "\"%g\"" w
      end;
      List.iteri
        (fun k a ->
          if with_meta || k > 0 then Buffer.add_string buf ", ";
          Json.escape_string buf a;
          Buffer.add_string buf ": ";
          match Tuple.get t k with
          | Value.Int v -> Buffer.add_string buf (string_of_int v)
          | v -> Json.escape_string buf (Value.to_string v))
        attrs;
      Buffer.add_string buf "}\n")
    tbl;
  Buffer.contents buf

let load ~name path =
  parse_string ~file:path ~name (Repair_runtime.Io_fault.read_file path)
