(* A minimal JSON-object-per-line reader/writer. Only the subset needed by
   the format is implemented: flat objects with string keys and
   string/integer values. *)

module Repair_error = Repair_runtime.Repair_error

type json_scalar = J_int of int | J_str of string

exception Parse_error of string

let error fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

(* --- scanner over a single line --- *)

type cursor = { line : string; mutable pos : int }

let peek_at c k =
  if c.pos + k < String.length c.line then Some c.line.[c.pos + k] else None

let peek c = peek_at c 0

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error "expected '%c', found '%c' at %d" ch x c.pos
  | None -> error "expected '%c', found end of line" ch

(* The four hex digits of a \uXXXX escape; [int_of_string] alone would
   also take "1_23" as 0x123. *)
let hex4 c =
  let hex = Buffer.create 4 in
  for _ = 1 to 4 do
    (match peek c with
    | Some h -> Buffer.add_char hex h
    | None -> error "truncated \\u escape");
    advance c
  done;
  let hex = Buffer.contents hex in
  if String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       hex
  then int_of_string ("0x" ^ hex)
  else error "bad \\u escape %S" hex

let parse_string_literal c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'; advance c; go ()
      | Some 't' -> Buffer.add_char buf '\t'; advance c; go ()
      | Some 'r' -> Buffer.add_char buf '\r'; advance c; go ()
      | Some 'b' -> Buffer.add_char buf '\b'; advance c; go ()
      | Some 'f' -> Buffer.add_char buf '\012'; advance c; go ()
      | Some ('"' | '\\' | '/') ->
        Buffer.add_char buf (Option.get (peek c));
        advance c;
        go ()
      | Some 'u' ->
        advance c;
        let code = hex4 c in
        let code =
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* High surrogate: a low half must follow as another \uXXXX
               escape, and the pair encodes one astral-plane scalar. *)
            if not (peek c = Some '\\' && peek_at c 1 = Some 'u') then
              error "unpaired high surrogate";
            c.pos <- c.pos + 2;
            let lo = hex4 c in
            if lo < 0xDC00 || lo > 0xDFFF then error "unpaired high surrogate";
            0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            error "unpaired low surrogate"
          else code
        in
        Buffer.add_utf_8_uchar buf (Uchar.of_int code);
        go ()
      | _ -> error "bad escape")
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
      advance c;
      go ()
    | Some ('.' | 'e' | 'E') -> error "floats are not supported"
    | _ -> ()
  in
  go ();
  let text = String.sub c.line start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> J_int i
  | None -> error "bad number %S" text

let parse_scalar c =
  skip_ws c;
  match peek c with
  | Some '"' -> J_str (parse_string_literal c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ('t' | 'f' | 'n' | '[' | '{') ->
    error "only strings and integers are supported"
  | Some ch -> error "unexpected '%c'" ch
  | None -> error "unexpected end of line"

let parse_object line =
  let c = { line; pos = 0 } in
  expect c '{';
  skip_ws c;
  let fields = ref [] in
  (match peek c with
  | Some '}' -> advance c
  | _ ->
    let rec members () =
      skip_ws c;
      let key = parse_string_literal c in
      expect c ':';
      let v = parse_scalar c in
      fields := (key, v) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        members ()
      | Some '}' -> advance c
      | _ -> error "expected ',' or '}'"
    in
    members ());
  skip_ws c;
  if peek c <> None then error "trailing characters after object";
  List.rev !fields

(* --- table-level reader --- *)

let value_of_scalar = function
  | J_int i -> Value.Int i
  | J_str s -> Value.of_string s

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
  let objects =
    List.map
      (fun (line_no, line) ->
        try (line_no, parse_object line)
        with Parse_error m -> parse_err ~line:line_no "%s" m)
      lines
  in
  let attrs =
    match objects with
    | (_, first) :: _ ->
      List.filter (fun (k, _) -> k <> "#id" && k <> "#weight") first
      |> List.map fst
    | [] -> assert false
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
        | Some (J_int i) -> Some i
        | Some (J_str _) -> parse_err ~line:line_no "#id must be an integer"
        | None -> None
      in
      let weight =
        match List.assoc_opt "#weight" fields with
        | Some (J_int i) -> float_of_int i
        | Some (J_str s) -> (
          match float_of_string_opt s with
          | Some f -> f
          | None -> parse_err ~line:line_no "bad #weight")
        | None -> 1.0
      in
      let values =
        List.map
          (fun a ->
            match List.assoc_opt a fields with
            | Some v -> value_of_scalar v
            | None -> parse_err ~line:line_no "missing attribute %s" a)
          attrs
      in
      try Table.Builder.add ?id ~weight builder (Tuple.make values)
      with Invalid_argument m -> parse_err ~line:line_no "%s" m)
    objects;
  Table.Builder.build builder

let parse_result ?file ~name text =
  Repair_error.guard (fun () -> parse_string ?file ~name text)

(* --- writer --- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let scalar_of_value v =
  match v with
  | Value.Int i -> string_of_int i
  | _ -> Printf.sprintf "\"%s\"" (escape (Value.to_string v))

let to_string ?(with_meta = true) tbl =
  let schema = Table.schema tbl in
  let buf = Buffer.create 256 in
  Table.iter
    (fun i t w ->
      Buffer.add_char buf '{';
      let fields =
        (if with_meta then
           [ Printf.sprintf "\"#id\": %d" i;
             Printf.sprintf "\"#weight\": %s"
               (if Float.is_integer w then string_of_int (int_of_float w)
                else Printf.sprintf "\"%g\"" w) ]
         else [])
        @ List.map
            (fun a ->
              Printf.sprintf "\"%s\": %s" (escape a)
                (scalar_of_value (Tuple.get_attr schema t a)))
            (Schema.attributes schema)
      in
      Buffer.add_string buf (String.concat ", " fields);
      Buffer.add_string buf "}\n")
    tbl;
  Buffer.contents buf

let read_file path =
  (* Sys_error can fire at open or mid-read (e.g. the path is a
     directory) — both are I/O errors, not parse errors. *)
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic n)
  with Sys_error m ->
    Repair_error.raise_error (Io { file = path; detail = m })

let load ~name path = parse_string ~file:path ~name (read_file path)

let load_result ~name path = Repair_error.guard (fun () -> load ~name path)

let save ?with_meta tbl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?with_meta tbl))
