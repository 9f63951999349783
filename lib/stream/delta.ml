open Repair_relational
module Json = Repair_obs.Json
module Repair_error = Repair_runtime.Repair_error

type t =
  | Insert of { id : Table.id option; weight : float; values : Value.t list }
  | Delete of { id : Table.id }

let err ?line detail =
  Repair_error.raise_error (Parse { source = "<delta>"; line; detail })

let int_field ?line j name =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.int_value v with
    | Some i -> Some i
    | None -> err ?line (Printf.sprintf "field %S must be an integer" name))

let parse ?line s =
  match Json.of_string s with
  | Error m -> err ?line ("invalid JSON: " ^ m)
  | Ok j -> (
    let op =
      match Json.member "op" j with
      | Some (Json.String s) -> s
      | Some _ -> err ?line "field \"op\" must be a string"
      | None -> err ?line "missing field \"op\""
    in
    match op with
    | "insert" ->
      let values =
        match Json.member "tuple" j with
        | Some (Json.List vs) ->
          List.map
            (function
              | Json.String s -> Value.of_string s
              | Json.Int n -> Value.int n
              | _ -> err ?line "tuple cells must be strings or integers")
            vs
        | Some _ -> err ?line "field \"tuple\" must be a list"
        | None -> err ?line "insert delta: missing field \"tuple\""
      in
      let weight =
        match Json.member "weight" j with
        | None -> 1.0
        | Some v -> (
          match Json.float_value v with
          | Some w when w > 0.0 && w < Float.infinity -> w
          | Some w when w > 0.0 -> err ?line "field \"weight\" must be finite"
          | Some _ -> err ?line "field \"weight\" must be positive"
          | None -> err ?line "field \"weight\" must be a number")
      in
      Insert { id = int_field ?line j "id"; weight; values }
    | "delete" -> (
      match int_field ?line j "id" with
      | Some id -> Delete { id }
      | None -> err ?line "delete delta: missing field \"id\"")
    | other -> err ?line (Printf.sprintf "unknown delta op %S" other))

let to_line = function
  | Insert { id; weight; values } ->
    let fields =
      ("op", Json.String "insert")
      :: ( "tuple",
           Json.List (List.map (fun v -> Json.String (Value.to_string v)) values)
         )
      :: (if weight = 1.0 then [] else [ ("weight", Json.Float weight) ])
      @ match id with None -> [] | Some i -> [ ("id", Json.Int i) ]
    in
    Json.to_string (Json.Obj fields)
  | Delete { id } ->
    Json.to_string (Json.Obj [ ("op", Json.String "delete"); ("id", Json.Int id) ])

let pp ppf d = Format.pp_print_string ppf (to_line d)
