(* A small CSV implementation: enough for round-tripping tables with
   quoted fields, without pulling in an external dependency. *)

module Repair_error = Repair_runtime.Repair_error

exception Unterminated

let parse_err ~file ?line fmt =
  Fmt.kstr
    (fun detail ->
      Repair_error.raise_error (Parse { source = file; line; detail }))
    fmt

(* ---------- reading ---------- *)

(* One pass over the input bytes. [next_record] reads the next non-blank
   record into the field slots: field [k] is the [len.(k)] bytes of
   [src.(k)] from [pos.(k)]. A field with no quote and no CR is a slice
   of the input itself; any other field is built in [buf]. No record
   string and no field list is ever made. *)
type scanner = {
  s : string;
  mutable next : int; (* first byte of the next record *)
  mutable n : int; (* fields of the current record *)
  mutable src : string array;
  mutable pos : int array;
  mutable len : int array;
  buf : Buffer.t;
}

let scanner s =
  { s; next = 0; n = 0; src = Array.make 8 s; pos = Array.make 8 0;
    len = Array.make 8 0; buf = Buffer.create 64 }

let push_field sc src pos len =
  let k = sc.n in
  if k = Array.length sc.pos then begin
    sc.src <- Array.append sc.src sc.src;
    sc.pos <- Array.append sc.pos sc.pos;
    sc.len <- Array.append sc.len sc.len
  end;
  sc.src.(k) <- src;
  sc.pos.(k) <- pos;
  sc.len.(k) <- len;
  sc.n <- k + 1

(* A field from byte [p]: a slice while [plain] meets only plain bytes,
   else the bytes so far go to [buf] and [built] takes over. *)
let rec field sc p = plain sc p p

and plain sc p j =
  let s = sc.s in
  if j = String.length s then begin
    push_field sc s p (j - p);
    close sc j
  end
  else
    match String.unsafe_get s j with
    | ',' | '\n' ->
      push_field sc s p (j - p);
      close sc j
    | '"' | '\r' ->
      Buffer.clear sc.buf;
      Buffer.add_substring sc.buf s p (j - p);
      built sc j
    | _ -> plain sc p (j + 1)

(* Outside quotes, building: CRs are dropped and a quote opens a quoted
   run anywhere in the field. *)
and built sc j =
  let s = sc.s in
  if j = String.length s || s.[j] = ',' || s.[j] = '\n' then begin
    push_field sc (Buffer.contents sc.buf) 0 (Buffer.length sc.buf);
    close sc j
  end
  else
    match s.[j] with
    | '\r' -> built sc (j + 1)
    | '"' -> in_quotes sc (j + 1)
    | c ->
      Buffer.add_char sc.buf c;
      built sc (j + 1)

(* Inside a quoted run every byte is kept. A quote closes the run,
   unless the next byte that is not a CR (those CRs lie outside quotes,
   so they are dropped) is a quote too: the pair is a literal quote. *)
and in_quotes sc j =
  let s = sc.s in
  if j = String.length s then raise Unterminated
  else
    match s.[j] with
    | '"' ->
      let k = skip_cr s (j + 1) in
      if k < String.length s && s.[k] = '"' then begin
        Buffer.add_char sc.buf '"';
        in_quotes sc (k + 1)
      end
      else built sc k
    | c ->
      Buffer.add_char sc.buf c;
      in_quotes sc (j + 1)

and skip_cr s k =
  if k < String.length s && s.[k] = '\r' then skip_cr s (k + 1) else k

(* A field ended at byte [j]: a comma starts the next one, a newline
   ends the record and [next] is left past it. *)
and close sc j =
  if j = String.length sc.s then sc.next <- j
  else if sc.s.[j] = ',' then field sc (j + 1)
  else sc.next <- j + 1

let rec blank s i stop =
  i = stop
  || match s.[i] with
     | ' ' | '\t' | '\012' | '\r' | '\n' -> blank s (i + 1) stop
     | _ -> false

(* Read the next record whose bytes are not all blanks; [false] at the
   end of the input.
   @raise Unterminated if the input ends inside quotes. *)
let rec next_record sc =
  let start = sc.next in
  start < String.length sc.s
  && begin
    sc.n <- 0;
    field sc start;
    (not (blank sc.s start sc.next)) || next_record sc
  end

let field_string sc k = String.sub sc.src.(k) sc.pos.(k) sc.len.(k)

let field_equals sc k t =
  let src = sc.src.(k) and p = sc.pos.(k) and n = sc.len.(k) in
  n = String.length t
  &&
  let rec go i = i = n || (src.[p + i] = t.[i] && go (i + 1)) in
  go 0

let parse_string ?(file = "<csv>") ~name s =
  let sc = scanner s in
  let read_record ~line =
    try next_record sc
    with Unterminated -> parse_err ~file ~line "unterminated quoted field"
  in
  if not (read_record ~line:1) then parse_err ~file "empty input";
  let cols = Array.init sc.n (fun k -> String.trim (field_string sc k)) in
  let ncols = Array.length cols in
  let last c =
    let rec go k = if k < 0 || cols.(k) = c then k else go (k - 1) in
    go (ncols - 1)
  in
  (* Every [#id] and [#weight] column leaves the schema, but only the
     last of each is read as one: the others stay value columns. *)
  let id_col = last "#id" and weight_col = last "#weight" in
  let attrs =
    List.filter (fun c -> c <> "#id" && c <> "#weight") (Array.to_list cols)
  in
  if attrs = [] then parse_err ~file ~line:1 "no attribute columns";
  let schema =
    try Schema.make name attrs
    with Invalid_argument m ->
      Repair_error.raise_error (Schema_mismatch { source = file; detail = m })
  in
  let value_cols =
    List.init ncols Fun.id
    |> List.filter (fun k -> k <> id_col && k <> weight_col)
    |> Array.of_list
  in
  let values = Array.make (Array.length value_cols) Value.Unit in
  let builder = Table.Builder.create schema in
  (* The parsed weight of the last distinct [#weight] text. *)
  let weight_text = ref "1" and weight = ref 1.0 in
  let rec rows line =
    if read_record ~line then begin
      if sc.n <> ncols then
        parse_err ~file ~line "row has %d fields, expected %d" sc.n ncols;
      let id =
        if id_col < 0 then None
        else
          match int_of_string_opt (field_string sc id_col) with
          | Some _ as id -> id
          | None -> parse_err ~file ~line "bad #id"
      in
      if weight_col >= 0 && not (field_equals sc weight_col !weight_text)
      then begin
        let text = field_string sc weight_col in
        match float_of_string_opt text with
        | Some w ->
          weight_text := text;
          weight := w
        | None -> parse_err ~file ~line "bad #weight"
      end;
      for v = 0 to Array.length values - 1 do
        let k = value_cols.(v) in
        values.(v) <- Value.of_substring sc.src.(k) sc.pos.(k) sc.len.(k)
      done;
      (try Table.Builder.add ?id ~weight:!weight builder (Tuple.of_array values)
       with Invalid_argument m -> parse_err ~file ~line "%s" m);
      rows (line + 1)
    end
  in
  rows 2;
  Table.Builder.build builder

let parse_result ?file ~name s =
  Repair_error.guard (fun () -> parse_string ?file ~name s)

(* ---------- writing ---------- *)

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let add_field buf s =
  if needs_quoting s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

(* The decimal digits of [i], written in place. They are taken from
   the non-positive [-|i|], which also exists for [min_int]. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let to_string ?(with_meta = true) tbl =
  let buf = Buffer.create 256 in
  let header =
    (if with_meta then [ "#id"; "#weight" ] else [])
    @ Schema.attributes (Table.schema tbl)
  in
  List.iteri
    (fun k c ->
      if k > 0 then Buffer.add_char buf ',';
      add_field buf c)
    header;
  Buffer.add_char buf '\n';
  (* The [%g] text of the last distinct weight bits. *)
  let weight_bits = ref (Int64.bits_of_float 1.0) and weight_text = ref "1" in
  Table.iter
    (fun i t w ->
      if with_meta then begin
        add_int buf i;
        Buffer.add_char buf ',';
        let bits = Int64.bits_of_float w in
        if not (Int64.equal bits !weight_bits) then begin
          weight_bits := bits;
          weight_text := Printf.sprintf "%g" w
        end;
        Buffer.add_string buf !weight_text
      end;
      for k = 0 to Tuple.arity t - 1 do
        if with_meta || k > 0 then Buffer.add_char buf ',';
        match Tuple.get t k with
        | Value.Int v -> add_int buf v
        | v -> add_field buf (Value.to_string v)
      done;
      Buffer.add_char buf '\n')
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
