module Repair_error = Repair_runtime.Repair_error
module Json = Repair_obs.Json

type entry =
  | Begin of { jobs : int }
  | Start of { job : string; attempt : int }
  | Retry of { job : string; attempt : int; error : string; backoff_ms : int }
  | Commit of {
      job : string;
      attempt : int;
      status : [ `Ok | `Degraded ];
      method_used : string;
      distance : float;
      wall_ms : float;
      counters : (string * int) list;
    }
  | Quarantine of {
      job : string;
      attempts : int;
      error : string;
      detail : string;
      counters : (string * int) list;
    }

let status_name = function `Ok -> "ok" | `Degraded -> "degraded"

let entry_to_json = function
  | Begin { jobs } ->
    Json.Obj [ ("event", Json.String "begin"); ("jobs", Json.Int jobs) ]
  | Start { job; attempt } ->
    Json.Obj
      [ ("event", Json.String "start");
        ("job", Json.String job);
        ("attempt", Json.Int attempt) ]
  | Retry { job; attempt; error; backoff_ms } ->
    Json.Obj
      [ ("event", Json.String "retry");
        ("job", Json.String job);
        ("attempt", Json.Int attempt);
        ("error", Json.String error);
        ("backoff_ms", Json.Int backoff_ms) ]
  | Commit { job; attempt; status; method_used; distance; wall_ms; counters }
    ->
    Json.Obj
      [ ("event", Json.String "commit");
        ("job", Json.String job);
        ("attempt", Json.Int attempt);
        ("status", Json.String (status_name status));
        ("method", Json.String method_used);
        ("distance", Json.Float distance);
        ("wall_ms", Json.Float wall_ms);
        ("counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)) ]
  | Quarantine { job; attempts; error; detail; counters } ->
    Json.Obj
      [ ("event", Json.String "quarantine");
        ("job", Json.String job);
        ("attempts", Json.Int attempts);
        ("error", Json.String error);
        ("detail", Json.String detail);
        ("counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)) ]

let counters_field j =
  match Json.member "counters" j with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.int_value v))
      fields
  | _ -> []

let entry_of_json j =
  let str k = Option.bind (Json.member k j) Json.string_value in
  let int k = Option.bind (Json.member k j) Json.int_value in
  let float k = Option.bind (Json.member k j) Json.float_value in
  let ( let* ) o f =
    match o with Some v -> f v | None -> Error "missing or ill-typed field"
  in
  match str "event" with
  | Some "begin" ->
    let* jobs = int "jobs" in
    Ok (Begin { jobs })
  | Some "start" ->
    let* job = str "job" in
    let* attempt = int "attempt" in
    Ok (Start { job; attempt })
  | Some "retry" ->
    let* job = str "job" in
    let* attempt = int "attempt" in
    let* error = str "error" in
    let* backoff_ms = int "backoff_ms" in
    Ok (Retry { job; attempt; error; backoff_ms })
  | Some "commit" ->
    let* job = str "job" in
    let* attempt = int "attempt" in
    let* status = str "status" in
    let* method_used = str "method" in
    let* distance = float "distance" in
    let* status =
      match status with
      | "ok" -> Some `Ok
      | "degraded" -> Some `Degraded
      | _ -> None
    in
    (* Journals written before telemetry landed lack these two fields;
       read them as zero so old runs still resume. *)
    let wall_ms = Option.value (float "wall_ms") ~default:0.0 in
    let counters = counters_field j in
    Ok (Commit { job; attempt; status; method_used; distance; wall_ms; counters })
  | Some "quarantine" ->
    let* job = str "job" in
    let* attempts = int "attempts" in
    let* error = str "error" in
    let* detail = str "detail" in
    let counters = counters_field j in
    Ok (Quarantine { job; attempts; error; detail; counters })
  | Some other -> Error (Printf.sprintf "unknown event %S" other)
  | None -> Error "record has no \"event\" field"

let is_terminal = function
  | Begin _ | Commit _ | Quarantine _ -> true
  | Start _ | Retry _ -> false

(* ---------- framing ---------- *)

(* Framed record: ['@' len ':' crc8 ':' payload '\n'] where [len] is the
   decimal byte length of [payload], [crc8] is 8 lowercase hex digits of
   CRC-32(payload), and [payload] is the compact JSON rendering of the
   entry. The JSON encoder escapes control characters, so a payload
   never contains a raw newline: a record is torn iff its final '\n' is
   missing, and any {e complete} line that fails the frame grammar, the
   checksum, or the JSON parse can only be corruption. *)
let frame payload =
  Printf.sprintf "@%d:%s:%s\n" (String.length payload)
    (Crc32.to_hex (Crc32.string payload)) payload

(* ---------- appending ---------- *)

module Io_fault = Repair_runtime.Io_fault

type writer = { fd : Unix.file_descr; path : string; sync : bool }

let io_err path fmt =
  Fmt.kstr
    (fun detail -> Repair_error.raise_error (Io { file = path; detail }))
    fmt

let open_append ?(sync = true) path =
  match Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 with
  | fd -> { fd; path; sync }
  | exception Unix.Unix_error (e, _, _) ->
    io_err path "%s" (Unix.error_message e)

let append w entry =
  let line = frame (Json.to_string (entry_to_json entry)) in
  let bytes = Bytes.unsafe_of_string line in
  let n = Bytes.length bytes in
  (* Through the fault shim: short writes loop, EINTR retries; any other
     Unix_error is a classified Io failure. Io_fault.Crash (simulated
     kill) propagates raw, as a real kill would. *)
  let rec write_all off =
    if off < n then
      match Io_fault.write w.fd bytes off (n - off) with
      | written -> write_all (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error (e, _, _) ->
        io_err w.path "%s" (Unix.error_message e)
  in
  write_all 0;
  if w.sync then begin
    let rec sync () =
      match Io_fault.fsync w.fd with
      | () -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> sync ()
      | exception Unix.Unix_error (e, _, _) ->
        io_err w.path "%s" (Unix.error_message e)
    in
    sync ()
  end

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

(* ---------- recovery ---------- *)

type recovery = {
  entries : entry list;
  committed : (string * entry) list;
  truncated : bool;
}

let corrupt_sidecar path = path ^ ".corrupt"

(* One scanned record: parsed, torn (incomplete final chunk — the only
   shape an interrupted append can leave), or bad (a complete line that
   fails validation — only corruption produces this). *)
type verdict = Parsed of entry * int | Torn | Bad of string

let is_digits s = s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s

let scan text pos =
  match String.index_from_opt text pos '\n' with
  | None -> Torn
  | Some nl -> (
    let line = String.sub text pos (nl - pos) in
    let bad m = Bad m in
    if String.length line < 12 || line.[0] <> '@' then
      bad "malformed frame header"
    else
      match String.index_from_opt line 1 ':' with
      | None -> bad "malformed frame header"
      | Some c1 -> (
        let len_field = String.sub line 1 (c1 - 1) in
        if not (is_digits len_field && String.length len_field <= 9) then
          bad "malformed length prefix"
        else
          let rlen = int_of_string len_field in
          if String.length line < c1 + 10 || line.[c1 + 9] <> ':' then
            bad "malformed frame header"
          else
            let crc_field = String.sub line (c1 + 1) 8 in
            let payload = String.sub line (c1 + 10) (String.length line - c1 - 10) in
            match Crc32.of_hex crc_field with
            | None -> bad "malformed checksum field"
            | Some crc ->
              if String.length payload <> rlen then bad "length mismatch"
              else if Crc32.string payload <> crc then bad "checksum mismatch"
              else (
                match Result.bind (Json.of_string payload) entry_of_json with
                | Ok e -> Parsed (e, nl + 1)
                | Error m -> bad m)))

let recover path =
  if not (Sys.file_exists path) then
    { entries = []; committed = []; truncated = false }
  else begin
    let text = Io_fault.read_file path in
    let len = String.length text in
    (* Walk record by record, remembering the byte offset just past the
       last terminal record: that is the committed prefix. Stop at the
       first torn or bad record. *)
    let committed_end = ref 0 in
    let committed_entries = ref [] in
    let pending = ref [] in
    let pos = ref 0 in
    let stopped = ref None in
    (try
       while !pos < len do
         match scan text !pos with
         | Torn -> raise Exit
         | Bad detail ->
           stopped := Some detail;
           raise Exit
         | Parsed (e, next) ->
           pending := e :: !pending;
           if is_terminal e then begin
             committed_end := next;
             committed_entries := !pending @ !committed_entries;
             pending := []
           end;
           pos := next
       done
     with Exit -> ());
    match !stopped with
    | Some detail ->
      (* Mid-file corruption: a complete record failed its integrity
         check. Quarantine everything past the last valid commit point
         to a sidecar, truncate the journal to that point, and refuse to
         replay further — the caller decides what to do with the
         structured error. A subsequent recover of the (now valid)
         prefix proceeds normally. *)
      Io_fault.write_file_atomic (corrupt_sidecar path)
        (String.sub text !committed_end (len - !committed_end));
      Unix.truncate path !committed_end;
      Repair_error.raise_error
        (Corruption { file = path; offset = !committed_end; detail })
    | None ->
      let truncated = !committed_end < len in
      if truncated then Unix.truncate path !committed_end;
      let entries = List.rev !committed_entries in
      let committed =
        List.filter_map
          (function
            | (Commit { job; _ } | Quarantine { job; _ }) as e -> Some (job, e)
            | Begin _ | Start _ | Retry _ -> None)
          entries
      in
      { entries; committed; truncated }
  end
