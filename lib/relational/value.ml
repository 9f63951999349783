type t =
  | Unit
  | Int of int
  | Str of string
  | Pair of t * t
  | Triple of t * t * t
  | Fresh of int

let rec compare v1 v2 =
  match v1, v2 with
  | Unit, Unit -> 0
  | Unit, _ -> -1
  | _, Unit -> 1
  | Int a, Int b -> Stdlib.compare a b
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str a, Str b -> String.compare a b
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Pair (a1, b1), Pair (a2, b2) ->
    let c = compare a1 a2 in
    if c <> 0 then c else compare b1 b2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | Triple (a1, b1, c1), Triple (a2, b2, c2) ->
    let c = compare a1 a2 in
    if c <> 0 then c
    else
      let c = compare b1 b2 in
      if c <> 0 then c else compare c1 c2
  | Triple _, _ -> -1
  | _, Triple _ -> 1
  | Fresh a, Fresh b -> Stdlib.compare a b

let equal v1 v2 = compare v1 v2 = 0

let rec hash = function
  | Unit -> 17
  | Int i -> Hashtbl.hash (0, i)
  | Str s -> Hashtbl.hash (1, s)
  | Pair (a, b) -> Hashtbl.hash (2, hash a, hash b)
  | Triple (a, b, c) -> Hashtbl.hash (3, hash a, hash b, hash c)
  | Fresh i -> Hashtbl.hash (4, i)

let rec to_string = function
  | Unit -> "⊙"
  | Int i -> string_of_int i
  | Str s -> s
  | Pair (a, b) -> "⟨" ^ to_string a ^ "," ^ to_string b ^ "⟩"
  | Triple (a, b, c) ->
    "⟨" ^ to_string a ^ "," ^ to_string b ^ "," ^ to_string c ^ "⟩"
  | Fresh i -> "$" ^ string_of_int i

let pp ppf v = Fmt.string ppf (to_string v)

let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let triple a b c = Triple (a, b, c)

let of_string s =
  let s = String.trim s in
  if s = "_|_" then Unit
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      if String.length s > 1 && s.[0] = '$' then
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some i -> Fresh i
        | None -> Str s
      else Str s

(* The decimal number in [s] from [i] to [stop], or -1 on a non-digit. *)
let rec digits s stop i acc =
  if i = stop then acc
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d >= 0 && d <= 9 then digits s stop (i + 1) ((acc * 10) + d) else -1

let check_range what s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg what

(* [decimal] on a checked range: an optional '-' and 1-18 digits, too
   short to overflow, read in place. *)
let decimal_in s pos len =
  let stop = pos + len in
  let neg = len > 0 && String.unsafe_get s pos = '-' in
  let start = if neg then pos + 1 else pos in
  let n =
    if stop - start >= 1 && stop - start <= 18 then digits s stop start 0
    else -1
  in
  if n < 0 then min_int else if neg then -n else n

let decimal s pos len =
  check_range "Value.decimal" s pos len;
  decimal_in s pos len

let of_substring s pos len =
  check_range "Value.of_substring" s pos len;
  let n = decimal_in s pos len in
  if n <> min_int then Int n else of_string (String.sub s pos len)

module Supply = struct
  type value = t
  type t = { mutable next_id : int }

  let create () = { next_id = 0 }

  let rec max_fresh acc = function
    | Unit | Int _ | Str _ -> acc
    | Fresh i -> max acc i
    | Pair (a, b) -> max_fresh (max_fresh acc a) b
    | Triple (a, b, c) -> max_fresh (max_fresh (max_fresh acc a) b) c

  let starting_above vs =
    let top = List.fold_left max_fresh (-1) vs in
    { next_id = top + 1 }

  let next s =
    let i = s.next_id in
    s.next_id <- i + 1;
    (Fresh i : value)
end
