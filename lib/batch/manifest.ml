module Repair_error = Repair_runtime.Repair_error
module Json = Repair_obs.Json
module Driver = Repair_driver.Driver

type kind = S_repair | U_repair

type job = {
  id : string;
  input : string;
  fds : string;
  kind : kind;
  strategy : Driver.strategy;
  timeout_s : float option;
  max_steps : int option;
  on_budget : [ `Degrade | `Fail ];
  output : string option;
}

type t = { jobs : job list }

let parse_string ?(file = "<manifest>") text =
  let err fmt =
    Fmt.kstr
      (fun detail ->
        Repair_error.raise_error (Parse { source = file; line = None; detail }))
      fmt
  in
  let doc =
    match Json.of_string text with Ok doc -> doc | Error m -> err "%s" m
  in
  let jobs_json =
    match Option.bind (Json.member "jobs" doc) Json.list_value with
    | Some l -> l
    | None -> err "no \"jobs\" array"
  in
  if jobs_json = [] then err "empty job list";
  let parse_job i j =
    let str k = Option.bind (Json.member k j) Json.string_value in
    let id =
      match str "id" with
      | Some s when s <> "" -> s
      | Some _ | None -> err "job %d: missing \"id\"" (i + 1)
    in
    let required k =
      match str k with
      | Some s when s <> "" -> s
      | Some _ | None -> err "job %s: missing \"%s\"" id k
    in
    let enum k ~default of_string =
      match str k with
      | None -> default
      | Some s -> (
        match of_string s with
        | Some v -> v
        | None -> err "job %s: unknown %s %S" id k s)
    in
    {
      id;
      input = required "input";
      fds = required "fds";
      kind =
        enum "kind" ~default:S_repair (function
          | "s-repair" -> Some S_repair
          | "u-repair" -> Some U_repair
          | _ -> None);
      strategy =
        enum "strategy" ~default:Driver.Auto (fun s ->
            List.assoc_opt s Driver.strategies);
      timeout_s = Option.bind (Json.member "timeout_s" j) Json.float_value;
      max_steps = Option.bind (Json.member "max_steps" j) Json.int_value;
      on_budget =
        enum "on-budget" ~default:`Degrade (function
          | "degrade" -> Some `Degrade
          | "fail" -> Some `Fail
          | _ -> None);
      output = str "output";
    }
  in
  let jobs = List.mapi parse_job jobs_json in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun jb ->
      if Hashtbl.mem seen jb.id then
        Repair_error.raise_error
          (Schema_mismatch
             { source = file; detail = "duplicate job id " ^ jb.id })
      else Hashtbl.add seen jb.id ())
    jobs;
  { jobs }

let load path =
  parse_string ~file:path (Repair_runtime.Io_fault.read_file path)

let load_result path = Repair_error.guard (fun () -> load path)
