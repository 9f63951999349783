(* compare — diff two BENCH_*.json files produced by bench/main.exe.

   Records are matched by their "name" field and compared on wall_ms.
   Records present in the baseline but missing from the new run are
   reported as vanished — a renamed or dropped experiment must not
   silently disappear from the regression gate. With --subset the new
   run is allowed to cover only part of the baseline (e.g. a --smoke
   run against the full-suite BENCH_1.json): vanished records are not
   an error, only the intersection is gated. Exit status: 0 when no
   regression exceeds the threshold and nothing vanished (unless
   --subset), 1 on a regression or a vanished record, 2 on unreadable
   input.

   Run with:  dune exec bench/compare.exe -- OLD.json NEW.json
              [--threshold PCT] [--min-ms MS] [--subset]  *)

module Json = Repair_core.Repair.Obs.Json
module Runtime = Repair_core.Repair.Runtime

let usage =
  "usage: compare OLD.json NEW.json [--threshold PCT] [--min-ms MS] [--subset]"

let die_usage msg =
  Fmt.epr "compare: %s@.%s@." msg usage;
  exit 2

let read_file path =
  try Runtime.Io_fault.read_file path
  with Runtime.Repair_error.Error (Io { file; detail }) ->
    die_usage (Fmt.str "%s: %s" file detail)

let records_of path =
  match Json.of_string (read_file path) with
  | Error msg -> die_usage (Fmt.str "%s: %s" path msg)
  | Ok doc -> (
    match Option.bind (Json.member "records" doc) Json.list_value with
    | None -> die_usage (Fmt.str "%s: no \"records\" array" path)
    | Some rs ->
      List.filter_map
        (fun r ->
          match
            ( Option.bind (Json.member "name" r) Json.string_value,
              Option.bind (Json.member "wall_ms" r) Json.float_value )
          with
          | Some name, Some ms -> Some (name, ms)
          | _ -> None)
        rs)

let () =
  let threshold = ref 25.0 in
  (* Records faster than this in both files are below timer noise; a 25%
     swing on a 50µs microbenchmark is not a regression signal. *)
  let min_ms = ref 0.5 in
  let subset = ref false in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--subset" :: rest ->
      subset := true;
      parse rest
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0.0 -> threshold := t
      | _ -> die_usage "bad --threshold");
      parse rest
    | "--min-ms" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> min_ms := t
      | _ -> die_usage "bad --min-ms");
      parse rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      positional := arg :: !positional;
      parse rest
    | arg :: _ -> die_usage ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_file, new_file =
    match List.rev !positional with
    | [ a; b ] -> (a, b)
    | _ -> die_usage "expected exactly two files"
  in
  let old_records = records_of old_file and new_records = records_of new_file in
  let regressions = ref [] and improvements = ref [] in
  let compared = ref 0 in
  List.iter
    (fun (name, new_ms) ->
      match List.assoc_opt name old_records with
      | None -> Fmt.pr "  new        %-50s %10.3f ms@." name new_ms
      | Some old_ms ->
        incr compared;
        if old_ms >= !min_ms || new_ms >= !min_ms then begin
          let pct = 100.0 *. ((new_ms /. old_ms) -. 1.0) in
          if pct > !threshold then
            regressions := (name, old_ms, new_ms, pct) :: !regressions
          else if pct < -. !threshold then
            improvements := (name, old_ms, new_ms, pct) :: !improvements
        end)
    new_records;
  let vanished =
    if !subset then []
    else
      List.filter
        (fun (name, _) -> List.assoc_opt name new_records = None)
        old_records
  in
  List.iter (fun (name, _) -> Fmt.pr "  vanished   %s@." name) vanished;
  let report verdict (name, old_ms, new_ms, pct) =
    Fmt.pr "  %-10s %-50s %10.3f ms → %10.3f ms  (%+.1f%%)@." verdict name
      old_ms new_ms pct
  in
  List.iter (report "FASTER") (List.rev !improvements);
  List.iter (report "REGRESSED") (List.rev !regressions);
  Fmt.pr "%d records compared (threshold %g%%, floor %g ms): %d regressed, \
          %d improved, %d vanished@."
    !compared !threshold !min_ms
    (List.length !regressions)
    (List.length !improvements)
    (List.length vanished);
  if !regressions <> [] || vanished <> [] then exit 1
