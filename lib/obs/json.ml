type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Floats must stay recognizable as floats after a round trip (and by the
   sed masks of the cram tests), so the literal always carries '.' or an
   exponent. JSON has no literal for non-finite numbers. *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  let indent n = Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string b (float_literal f)
      else Buffer.add_string b "null"
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_char b '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          if pretty then indent (depth + 1);
          go (depth + 1) item)
        items;
      newline ();
      if pretty then indent depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          if pretty then indent (depth + 1);
          escape_string b k;
          Buffer.add_string b (if pretty then ": " else ":");
          go (depth + 1) item)
        fields;
      newline ();
      if pretty then indent depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

exception Parse_error of string

(* The parser recurses once per container level; past this depth it
   fails instead of growing the stack with the input. *)
let max_depth = 512

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'u' ->
          let read_hex4 at =
            if at + 4 > n then fail "truncated \\u escape"
            else
              (* Exactly four hex digits: [int_of_string] alone would
                 also take "1_23" as 0x123. *)
              let hex = String.sub s at 4 in
              if String.for_all is_hex_digit hex then
                int_of_string ("0x" ^ hex)
              else fail "bad \\u escape"
          in
          let code = read_hex4 (!pos + 1) in
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* High surrogate: the low half must follow as another \uXXXX
               escape; the pair encodes one astral-plane scalar (RFC 8259
               §7 / RFC 7159). Emitting the two halves separately would
               produce CESU-8, not UTF-8. *)
            let lo_at = !pos + 5 in
            if lo_at + 1 >= n || s.[lo_at] <> '\\' || s.[lo_at + 1] <> 'u'
            then fail "unpaired high surrogate";
            let lo = read_hex4 (lo_at + 2) in
            if not (lo >= 0xDC00 && lo <= 0xDFFF) then
              fail "unpaired high surrogate";
            let scalar =
              0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
            in
            Buffer.add_utf_8_uchar b (Uchar.of_int scalar);
            pos := lo_at + 5
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            fail "unpaired low surrogate"
          else begin
            Buffer.add_utf_8_uchar b (Uchar.of_int code);
            pos := !pos + 4
          end
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth -> fail "nesting too deep"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let float_value = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let int_value = function Int i -> Some i | _ -> None
let string_value = function String s -> Some s | _ -> None
let list_value = function List l -> Some l | _ -> None
