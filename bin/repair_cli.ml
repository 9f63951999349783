(* repair-cli — command-line front end.

   Subcommands:
     classify   complexity report for an FD set
     s-repair   optimal/approximate subset repair of a CSV table
     u-repair   optimal/approximate update repair of a CSV table
     mpd        most probable database of a probabilistic CSV table  *)

open Cmdliner
module R = Repair_core.Repair
module E = R.Runtime.Repair_error
open R.Relational
open R.Fd

let fds_arg =
  let doc =
    "Functional dependencies, semicolon-separated, e.g. 'A B -> C; C -> A'."
  in
  Arg.(required & opt (some string) None & info [ "f"; "fds" ] ~docv:"FDS" ~doc)

let csv_in =
  let doc = "Input CSV file (header row; optional #id and #weight columns)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.csv" ~doc)

let csv_out =
  let doc = "Output CSV file (defaults to stdout)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let strategy_arg =
  let doc =
    "Algorithm choice: auto (dichotomy-driven), poly, exact, approx."
  in
  Arg.(value
       & opt (enum R.Driver.strategies) R.Driver.Auto
       & info [ "s"; "strategy" ] ~doc)

(* Error classes map to documented exit codes (see Repair_error.exit_code):
   0 success, 1 unexpected internal error, 2 parse, 3 i/o,
   4 schema mismatch, 5 budget exhausted, 6 intractable, 7 size limit,
   8 injected fault, 11 corruption. *)
let die_error e =
  Fmt.epr "repair-cli: %a@." E.pp e;
  exit (E.exit_code e)

let or_die_error = function Ok v -> v | Error e -> die_error e

(* Every file the CLI produces goes down atomically (tmp + fsync +
   rename): a crash mid-write leaves either the old artifact or the new
   one, never a torn file for downstream tooling to choke on. *)
let write_out path text =
  try R.Runtime.Io_fault.write_file_atomic path text
  with E.Error e -> die_error e

let parse_fds s = E.guard (fun () -> R.Driver.parse_fds ~source:"<fds>" s)

let load_table path = E.guard (fun () -> R.load_table path)

let or_die = function
  | Ok v -> v
  | Error (`Msg m) ->
    die_error (E.Parse { source = "<args>"; line = None; detail = m })

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log algorithm choices.")

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds. Exponential solvers poll it \
     cooperatively; on exhaustion the driver degrades or fails per \
     $(b,--on-budget)."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc)

let max_steps_arg =
  let doc =
    "Work budget: at most $(docv) solver checkpoints. Deterministic — the \
     same instance and budget always degrade at the same point."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let on_budget_arg =
  let doc =
    "Budget-exhaustion policy: $(b,degrade) falls back to the certified \
     polynomial approximation (marking the result degraded); $(b,fail) \
     exits with code 5."
  in
  Arg.(value
       & opt (enum [ ("degrade", `Degrade); ("fail", `Fail) ]) `Degrade
       & info [ "on-budget" ] ~docv:"POLICY" ~doc)

let metrics_arg =
  let doc =
    "Record solver counters and spans; write the JSON snapshot to $(docv) \
     after the repair ('-' = stdout, the default — combine with $(b,-o) to \
     keep the repair itself out of the way). Use the glued form \
     $(b,--metrics=FILE) to name a file."
  in
  Arg.(value
       & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record begin/end/instant trace events and write them as Chrome \
     trace-event JSON to $(docv) after the run (default $(b,trace.json); \
     '-' = stdout). Load the file in Perfetto or chrome://tracing, or \
     feed it to $(b,repair-cli profile)."
  in
  Arg.(value
       & opt ~vopt:(Some "trace.json") (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_buffer_arg =
  let doc =
    "Trace ring-buffer capacity, in events. When the ring is full the \
     oldest events are dropped (the drop count lands in the \
     trace.dropped counter and the trace's otherData)."
  in
  Arg.(value
       & opt int R.Obs.Trace.default_capacity
       & info [ "trace-buffer" ] ~docv:"N" ~doc)

(* Run [f] with the event tracer enabled and export the Chrome trace
   afterwards — same shape as [with_metrics] below, and independent of
   it: either, both, or neither can be on. *)
let with_trace dest capacity f =
  match dest with
  | None -> f ()
  | Some dest ->
    let module T = R.Obs.Trace in
    T.enable ~capacity ();
    let emit_trace () =
      let doc =
        R.Obs.Trace_export.to_chrome (T.events ()) ~dropped:(T.dropped ())
      in
      let text = R.Obs.Json.to_string ~pretty:true doc ^ "\n" in
      match dest with
      | "-" -> print_string text
      | path -> write_out path text
    in
    Fun.protect ~finally:emit_trace f

(* Run [f] with the metrics registry enabled and dump the snapshot
   afterwards. Degraded runs still snapshot (degradation happens inside
   [f]); error paths exit the process before the snapshot is written. *)
let with_metrics dest f =
  match dest with
  | None -> f ()
  | Some dest ->
    let module M = R.Obs.Metrics in
    M.reset ();
    M.enable ();
    let emit_snapshot () =
      let text = R.Obs.Json.to_string ~pretty:true (M.snapshot ()) ^ "\n" in
      match dest with
      | "-" -> print_string text
      | path -> write_out path text
    in
    Fun.protect ~finally:emit_snapshot f

let domains_arg =
  let doc =
    "Execute on $(docv) domains (the submitting one plus $(docv)-1 \
     workers). Results are bit-identical to a single-domain run: the \
     pool's merges are deterministic (DESIGN §13). 1, the default, \
     disables the pool entirely."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

(* Bracketed pool for the --domains flag. A value below 1 is a usage
   error (exit 2, like any bad argument) — there is no dedicated exit
   code for pool startup failure; a failed Domain.spawn surfaces as an
   internal error (exit 1). *)
let with_domains domains f =
  if domains < 1 then
    die_error
      (E.Parse
         { source = "<args>"; line = None; detail = "--domains must be >= 1" })
  else if domains = 1 then f None
  else R.Par.Pool.with_pool ~domains (fun pool -> f (Some pool))

let emit out tbl =
  match out with
  | None -> print_string (Csv_io.to_string tbl)
  | Some path -> write_out path (R.table_text path tbl)

let classify_cmd =
  let run fds =
    let d = or_die_error (parse_fds fds) in
    print_string (R.Driver.describe d)
  in
  let doc = "Report the repair complexity of an FD set (Theorem 3.4 etc.)." in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ fds_arg)

let report_header kind (r : R.Driver.report) =
  Fmt.epr "%s: distance=%g method=%s %s%s@." kind r.distance r.method_used
    (if r.optimal then "(optimal)"
     else Fmt.str "(within factor %g of optimal)" r.ratio)
    (if r.degraded then " [degraded]" else "");
  List.iter (fun f -> Fmt.epr "  fallback: %s@." f) r.fallbacks

let s_repair_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ] ~doc:"Print why each tuple was deleted (stderr).")
  in
  let run fds input out strategy explain verbose timeout max_steps on_budget
      domains metrics trace trace_buffer =
    setup_logs verbose;
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    with_trace trace trace_buffer @@ fun () ->
    with_metrics metrics @@ fun () ->
    with_domains domains @@ fun pool ->
    let budget = R.Runtime.Budget.create ?timeout_s:timeout ?max_steps () in
    let r =
      or_die_error
        (R.Driver.s_repair_result ?pool ~strategy ~budget ~on_budget d tbl)
    in
    report_header "s-repair" r;
    if explain then
      List.iter
        (fun reason -> Fmt.epr "  %a@." R.Srepair.Explain.pp_reason reason)
        (R.Srepair.Explain.deletions d ~table:tbl r.result);
    emit out r.result
  in
  let doc = "Compute a (weighted-)optimal subset repair of a CSV table." in
  Cmd.v
    (Cmd.info "s-repair" ~doc)
    Term.(const run $ fds_arg $ csv_in $ csv_out $ strategy_arg $ explain_arg
          $ verbose_arg $ timeout_arg $ max_steps_arg $ on_budget_arg
          $ domains_arg $ metrics_arg $ trace_arg $ trace_buffer_arg)

let u_repair_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ] ~doc:"Print every changed cell (stderr).")
  in
  let run fds input out strategy explain verbose timeout max_steps on_budget
      domains metrics trace trace_buffer =
    setup_logs verbose;
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    with_trace trace trace_buffer @@ fun () ->
    with_metrics metrics @@ fun () ->
    with_domains domains @@ fun pool ->
    let budget = R.Runtime.Budget.create ?timeout_s:timeout ?max_steps () in
    let r =
      or_die_error
        (R.Driver.u_repair_result ?pool ~strategy ~budget ~on_budget d tbl)
    in
    report_header "u-repair" r;
    if explain then begin
      let schema = Table.schema tbl in
      List.iter
        (fun (i, j) ->
          Fmt.epr "  tuple %d, %s: %a → %a@." i (Schema.attribute_at schema j)
            Value.pp (Tuple.get (Table.tuple tbl i) j)
            Value.pp (Tuple.get (Table.tuple r.result i) j))
        (R.Urepair.U_check.updated_cells ~of_:tbl r.result)
    end;
    emit out r.result
  in
  let doc = "Compute an optimal/approximate update repair of a CSV table." in
  Cmd.v
    (Cmd.info "u-repair" ~doc)
    Term.(const run $ fds_arg $ csv_in $ csv_out $ strategy_arg $ explain_arg
          $ verbose_arg $ timeout_arg $ max_steps_arg $ on_budget_arg
          $ domains_arg $ metrics_arg $ trace_arg $ trace_buffer_arg)

let mpd_cmd =
  let run fds input out =
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    let pt =
      try R.Mpd.Prob_table.of_table tbl
      with Invalid_argument m ->
        die_error
          (E.Schema_mismatch { source = input; detail = m })
    in
    match R.Mpd.Mpd.solve ~strategy:R.Mpd.Mpd.Poly d pt with
    | Ok (Some world) ->
      Fmt.epr "mpd: log-probability=%g@."
        (R.Mpd.Prob_table.log_probability pt world);
      emit out world
    | Ok None ->
      Fmt.epr "mpd: certain tuples conflict; every world has probability 0@."
    | Error stuck ->
      die_error
        (E.Intractable
           {
             what = "mpd";
             detail =
               Fmt.str
                 "FD set is on the hard side of the dichotomy (stuck at %a); \
                  rerun s-repair with --strategy exact on a small table"
                 Fd_set.pp stuck;
           })
  in
  let doc =
    "Most probable database: weights in (0,1] are tuple probabilities."
  in
  Cmd.v (Cmd.info "mpd" ~doc) Term.(const run $ fds_arg $ csv_in $ csv_out)

let generate_cmd =
  let attrs_arg =
    let doc = "Attribute names, space-separated, e.g. 'A B C'." in
    Arg.(required & opt (some string) None & info [ "a"; "attrs" ] ~docv:"ATTRS" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 100 & info [ "size" ] ~doc:"Number of tuples.")
  in
  let noise_arg =
    Arg.(value & opt float 0.05 & info [ "noise" ] ~doc:"Cell perturbation probability.")
  in
  let domain_arg =
    Arg.(value & opt int 10 & info [ "domain" ] ~doc:"Values per attribute.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let weighted_arg =
    Arg.(value & flag & info [ "weighted" ] ~doc:"Draw integer weights in 1..5.")
  in
  let dup_arg =
    Arg.(value & opt float 0.0 & info [ "duplicates" ] ~doc:"Duplicate-tuple rate.")
  in
  let run fds attrs n noise domain seed weighted duplicates out =
    let d = or_die_error (parse_fds fds) in
    let names =
      String.split_on_char ' ' attrs |> List.map String.trim
      |> List.filter (fun a -> a <> "")
    in
    let schema =
      try Schema.make "T" names
      with Invalid_argument m -> or_die (Error (`Msg m))
    in
    let missing =
      Attr_set.diff (Fd_set.attrs d) (Schema.attribute_set schema)
    in
    if not (Attr_set.is_empty missing) then
      or_die
        (Error
           (`Msg
             (Fmt.str "FD attributes %a not in --attrs" Attr_set.pp
                missing)));
    let rng = R.Workload.Rng.make seed in
    let spec =
      { R.Workload.Gen_table.default with
        n; noise; domain_size = domain; weighted; duplicate_rate = duplicates }
    in
    let t = R.Workload.Gen_table.dirty rng schema d spec in
    emit out t
  in
  let doc =
    "Generate a dirty CSV table: consistent w.r.t. the FDs, then perturbed."
  in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ fds_arg $ attrs_arg $ n_arg $ noise_arg $ domain_arg
      $ seed_arg $ weighted_arg $ dup_arg $ csv_out)

let cqa_cmd =
  let where_arg =
    let doc = "Selection, comma-separated equalities, e.g. 'facility=HQ'." in
    Arg.(value & opt string "" & info [ "w"; "where" ] ~docv:"COND" ~doc)
  in
  let select_arg =
    let doc = "Attributes to project, space-separated." in
    Arg.(required & opt (some string) None & info [ "p"; "project" ] ~docv:"ATTRS" ~doc)
  in
  let run fds input where select =
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    let parse_cond tok =
      match String.index_opt tok '=' with
      | Some i ->
        ( String.trim (String.sub tok 0 i),
          Value.of_string (String.sub tok (i + 1) (String.length tok - i - 1)) )
      | None -> or_die (Error (`Msg ("bad condition: " ^ tok)))
    in
    let conds =
      String.split_on_char ',' where
      |> List.map String.trim
      |> List.filter (fun tok -> tok <> "")
      |> List.map parse_cond
    in
    let attrs =
      String.split_on_char ' ' select |> List.map String.trim
      |> List.filter (fun a -> a <> "")
    in
    let q = R.Cqa.Cqa.query ~select:conds attrs in
    let certain, possible =
      try R.Cqa.Cqa.range q d tbl
      with Failure m -> or_die (Error (`Msg m))
    in
    let print_tuples label ts =
      Fmt.pr "%s (%d):@." label (List.length ts);
      List.iter (fun t -> Fmt.pr "  %a@." Tuple.pp t) ts
    in
    print_tuples "certain answers" certain;
    print_tuples "possible answers" possible
  in
  let doc =
    "Consistent query answering: answers holding in every/some S-repair."
  in
  Cmd.v
    (Cmd.info "cqa" ~doc)
    Term.(const run $ fds_arg $ csv_in $ where_arg $ select_arg)

let normalize_cmd =
  let attrs_arg =
    let doc = "Attribute names, space-separated (defaults to attr(Δ))." in
    Arg.(value & opt (some string) None & info [ "a"; "attrs" ] ~docv:"ATTRS" ~doc)
  in
  let run fds attrs =
    let d = or_die_error (parse_fds fds) in
    let attr_set =
      match attrs with
      | None -> R.Fd.Fd_set.attrs d
      | Some s ->
        String.split_on_char ' ' s |> List.map String.trim
        |> List.filter (fun a -> a <> "")
        |> Attr_set.of_list
    in
    Fmt.pr "attributes: %a@." Attr_set.pp attr_set;
    Fmt.pr "BCNF: %b; 3NF: %b@."
      (R.Fd.Normalize.is_bcnf d ~attrs:attr_set)
      (R.Fd.Normalize.is_3nf d ~attrs:attr_set);
    Fmt.pr "keys: %a@."
      Fmt.(list ~sep:(any "; ") Attr_set.pp)
      (R.Fd.Cover.keys d ~attrs:attr_set);
    Fmt.pr "BCNF decomposition:@.";
    List.iter
      (fun f -> Fmt.pr "  %a@." R.Fd.Normalize.pp_fragment f)
      (R.Fd.Normalize.bcnf_decompose d ~attrs:attr_set);
    Fmt.pr "3NF synthesis:@.";
    List.iter
      (fun f -> Fmt.pr "  %a@." R.Fd.Normalize.pp_fragment f)
      (R.Fd.Normalize.synthesize_3nf d ~attrs:attr_set)
  in
  let doc = "Check normal forms and decompose the schema (BCNF / 3NF)." in
  Cmd.v (Cmd.info "normalize" ~doc) Term.(const run $ fds_arg $ attrs_arg)

let dirtiness_cmd =
  let run fds input =
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    let e = R.Cleaning.Dirtiness.estimate d tbl in
    Fmt.pr "%a@." R.Cleaning.Dirtiness.pp e;
    Fmt.pr "fraction dirty (upper bound): %.1f%%@."
      (100.0 *. R.Cleaning.Dirtiness.fraction_dirty e tbl)
  in
  let doc =
    "Estimate how dirty a table is: certified bounds on the optimal repair \
     costs (Section 1 motivation)."
  in
  Cmd.v (Cmd.info "dirtiness" ~doc) Term.(const run $ fds_arg $ csv_in)

let session_cmd =
  let module Session = R.Cleaning.Session in
  let run fds input =
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    or_die_error (E.guard (fun () -> R.Driver.validate d tbl));
    let session = ref (Session.start d tbl) in
    let done_ = ref false in
    let handle line =
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun tok -> tok <> "")
      with
      | [] -> ()
      | [ "show" ] -> Fmt.pr "%a@." Table.pp (Session.current !session)
      | [ "violations" ] ->
        List.iter
          (fun (i, j, fd) ->
            Fmt.pr "tuples %d and %d violate %a@." i j R.Fd.Fd.pp fd)
          (Session.violations !session)
      | [ "dirtiness" ] ->
        Fmt.pr "%a@." R.Cleaning.Dirtiness.pp (Session.dirtiness !session)
      | [ "cost" ] -> Fmt.pr "manual cost so far: %g@." (Session.cost !session)
      | [ "delete"; i ] ->
        session := Session.delete !session (int_of_string i)
      | [ "restore"; i ] ->
        session := Session.restore !session (int_of_string i)
      | [ "update"; i; attr; value ] ->
        session :=
          Session.update !session (int_of_string i) attr (Value.of_string value)
      | [ "finish"; "deletions" ] ->
        print_string (Csv_io.to_string (Session.auto_finish ~prefer:`Deletions !session));
        done_ := true
      | [ "finish"; "updates" ] ->
        print_string (Csv_io.to_string (Session.auto_finish ~prefer:`Updates !session));
        done_ := true
      | [ "quit" ] -> done_ := true
      | toks ->
        Fmt.epr "session: unknown command %s@." (String.concat " " toks)
    in
    (try
       while not !done_ do
         handle (input_line stdin)
       done
     with
    | End_of_file -> ()
    | E.Error e -> die_error e
    | Invalid_argument m | Failure m -> or_die (Error (`Msg m)))
  in
  let doc =
    "Interactive cleaning session (reads commands from stdin): show, \
     violations, dirtiness, cost, delete ID, update ID ATTR VALUE, restore \
     ID, finish deletions|updates, quit."
  in
  Cmd.v (Cmd.info "session" ~doc) Term.(const run $ fds_arg $ csv_in)

let batch_cmd =
  let manifest_arg =
    let doc =
      "Manifest JSON file: {\"jobs\": [{\"id\", \"input\", \"fds\", \
       \"kind\", \"strategy\", \"max_steps\", \"timeout_s\", \
       \"on-budget\", \"output\"}, ...]}. Only id/input/fds are required."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST.json" ~doc)
  in
  let journal_arg =
    let doc =
      "Write-ahead journal (JSONL, fsync'd per record). Every job outcome \
       is committed here; a killed run restarts from it with $(b,--resume)."
    in
    Arg.(value & opt string "journal.jsonl" & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Recover the journal, skip jobs whose commit record is durable, and \
       replay in-flight ones. Without this flag a non-empty journal is an \
       error."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let retries_arg =
    let doc =
      "Retry transiently failed jobs (timeouts, injected faults) up to \
       $(docv) extra times; permanently failed jobs are quarantined \
       immediately."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc =
      "Base backoff before retry $(i,k), which waits $(docv)·2^(k-1) ms — \
       deterministic, so journals replay identically."
    in
    Arg.(value & opt int 100 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let summary_arg =
    let doc = "Write the summary JSON to $(docv) (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let run manifest journal resume retries backoff out verbose domains metrics
      trace trace_buffer =
    setup_logs verbose;
    let m = or_die_error (R.Batch.Manifest.load_result manifest) in
    let code =
      with_trace trace trace_buffer @@ fun () ->
      with_metrics metrics @@ fun () ->
      with_domains domains @@ fun pool ->
      let t0 = Unix.gettimeofday () in
      let summary =
        or_die_error
          (E.guard (fun () ->
               R.Batch.run ?pool ~retries ~backoff_ms:backoff ~resume ~journal
                 m))
      in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let text =
        R.Obs.Json.to_string ~pretty:true
          (R.Batch.Runner.summary_json ~wall_ms summary)
        ^ "\n"
      in
      (match out with
      | None -> print_string text
      | Some path -> write_out path text);
      if summary.R.Batch.Runner.quarantined > 0 then
        R.Batch.Runner.exit_some_quarantined
      else 0
    in
    exit code
  in
  let doc =
    "Run a manifest of repair jobs through the journaled batch runner: \
     per-job fault isolation, checkpoint/resume, retries with exponential \
     backoff, and poison-job quarantine. Exit status 0 when every job \
     committed cleanly, 9 when the batch finished but some jobs were \
     quarantined."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(const run $ manifest_arg $ journal_arg $ resume_arg $ retries_arg
          $ backoff_arg $ summary_arg $ verbose_arg $ domains_arg
          $ metrics_arg $ trace_arg $ trace_buffer_arg)

let profile_cmd =
  let trace_file_arg =
    let doc = "Chrome trace-event JSON, as written by $(b,--trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json" ~doc)
  in
  let top_arg =
    let doc = "Show the $(docv) hottest span names by self time." in
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)
  in
  let check_arg =
    let doc =
      "Only validate the trace — required fields, monotone timestamps, \
       matched begin/end pairs — and report its size; exit 1 if invalid."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run file top check =
    let text =
      try R.Runtime.Io_fault.read_file file with E.Error e -> die_error e
    in
    let j =
      match R.Obs.Json.of_string text with
      | Ok j -> j
      | Error m -> die_error (E.Parse { source = file; line = None; detail = m })
    in
    let events, dropped =
      match R.Obs.Trace_export.of_chrome j with
      | Ok v -> v
      | Error m -> die_error (E.Parse { source = file; line = None; detail = m })
    in
    (match R.Obs.Trace_export.validate ~dropped events with
    | Ok () -> ()
    | Error m ->
      Fmt.epr "repair-cli: %s: invalid trace: %s@." file m;
      exit 1);
    if check then
      Fmt.pr "%s: valid trace, %d events, %d dropped@." file
        (List.length events) dropped
    else
      Fmt.pr "%a"
        (R.Obs.Trace_export.pp_hotspots ~top)
        (R.Obs.Trace_export.hotspots events)
  in
  let doc =
    "Replay a trace file (from $(b,--trace)) into a plain-text hotspot \
     report: per span name, completed count, inclusive and self wall \
     time, and the longest single span, sorted by self time."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(const run $ trace_file_arg $ top_arg $ check_arg)

let armstrong_cmd =
  let attrs_arg =
    let doc = "Attribute names, space-separated (defaults to attr(Δ))." in
    Arg.(value & opt (some string) None & info [ "a"; "attrs" ] ~docv:"ATTRS" ~doc)
  in
  let run fds attrs out =
    let d = or_die_error (parse_fds fds) in
    let names =
      match attrs with
      | Some s ->
        String.split_on_char ' ' s |> List.map String.trim
        |> List.filter (fun a -> a <> "")
      | None -> Attr_set.elements (R.Fd.Fd_set.attrs d)
    in
    let schema =
      try Schema.make "Armstrong" names
      with Invalid_argument m -> or_die (Error (`Msg m))
    in
    emit out (R.Fd.Armstrong.relation d schema)
  in
  let doc =
    "Emit an Armstrong relation: a table satisfying exactly the FDs \
     entailed by Δ."
  in
  Cmd.v
    (Cmd.info "armstrong" ~doc)
    Term.(const run $ fds_arg $ attrs_arg $ csv_out)

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port on 127.0.0.1 (alternative to $(b,--socket))." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let listen_of socket port : R.Serve.Server.listen =
  match (socket, port) with
  | Some path, None -> Unix_sock path
  | None, Some p -> Tcp p
  | _ ->
    or_die (Error (`Msg "exactly one of --socket or --port is required"))

let serve_cmd =
  let queue_arg =
    let doc =
      "Admission queue capacity: once $(docv) repair requests are queued, \
       further ones are shed with a structured 'overloaded' error."
    in
    Arg.(value & opt int R.Serve.Engine.default_config.queue_capacity
         & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let watermark_arg =
    let doc =
      "Degrade watermark: requests admitted at queue depth >= $(docv) are \
       downgraded to the certified polynomial approximation rung, \
       whatever strategy they asked for."
    in
    Arg.(value & opt (some int) None
         & info [ "degrade-watermark" ] ~docv:"N" ~doc)
  in
  let quota_arg =
    let doc =
      "Per-connection repair-request quota; excess requests on the same \
       connection are shed with 'quota-exceeded'."
    in
    Arg.(value & opt (some int) None & info [ "quota" ] ~docv:"N" ~doc)
  in
  let default_timeout_arg =
    let doc =
      "Default per-request wall budget in seconds for requests that do \
       not send their own timeout_s. 0 means unlimited."
    in
    Arg.(value & opt float 10.0 & info [ "default-timeout" ] ~docv:"SEC" ~doc)
  in
  let max_steps_cap_arg =
    let doc = "Hard cap on any request's max_steps budget." in
    Arg.(value & opt (some int) None & info [ "max-steps-cap" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc =
      "Drain deadline in seconds: after SIGTERM/SIGINT/drain, queued work \
       gets this long to finish before remaining requests are cancelled."
    in
    Arg.(value & opt float R.Serve.Engine.default_config.drain_deadline_s
         & info [ "drain-deadline" ] ~docv:"SEC" ~doc)
  in
  let max_bytes_arg =
    let doc = "Maximum request line size in bytes; longer lines are rejected." in
    Arg.(value & opt int R.Serve.Engine.default_config.max_request_bytes
         & info [ "max-request-bytes" ] ~docv:"N" ~doc)
  in
  let read_deadline_arg =
    let doc =
      "Slow-loris defense: a connection holding a partial request line \
       must make read progress within $(docv) seconds or it is evicted \
       with a 'deadline-exceeded' error. 0 disables."
    in
    Arg.(value & opt float 30.0
         & info [ "read-deadline" ] ~docv:"SEC" ~doc)
  in
  let write_deadline_arg =
    let doc =
      "Slow-reader defense: a connection with pending replies must accept \
       bytes within $(docv) seconds or it is evicted. 0 disables."
    in
    Arg.(value & opt float 30.0
         & info [ "write-deadline" ] ~docv:"SEC" ~doc)
  in
  let cache_arg =
    let doc = "Warm FD-set cache capacity (LRU entries)." in
    Arg.(value & opt int R.Serve.default_cache_capacity
         & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Where to flush the final metrics snapshot on drain: a path, or '-' \
       for stdout (default stderr)."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"OUT" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Slow-request threshold in milliseconds: settled requests whose \
       solver wall time reaches $(docv) are logged as structured JSON \
       records (one per line) to --slow-log. 0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let slow_log_arg =
    let doc =
      "Where slow-request records go: a path (appended), or '-' for \
       stdout (default stderr)."
    in
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"OUT" ~doc)
  in
  let stats_interval_arg =
    let doc =
      "Width in seconds of one rolling time-series window (the 'stats' \
       op's resolution)."
    in
    Arg.(value & opt float R.Serve.Engine.default_config.stats_interval_s
         & info [ "stats-interval" ] ~docv:"SEC" ~doc)
  in
  let stats_windows_arg =
    let doc = "Rolling time-series ring capacity, in windows." in
    Arg.(value & opt int R.Serve.Engine.default_config.stats_windows
         & info [ "stats-windows" ] ~docv:"N" ~doc)
  in
  let trace_arg =
    let doc =
      "Record request-scoped spans for the serve's lifetime and write a \
       Chrome trace-event JSON document to $(docv) (atomic write) after \
       drain. With --domains > 1, worker spans appear on per-task lanes \
       tagged with their wire request id."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT" ~doc)
  in
  let run socket port queue watermark quota default_timeout max_steps_cap
      drain max_bytes read_deadline write_deadline cache_capacity metrics_out
      slow_ms slow_log stats_interval stats_windows trace_out domains verbose
      =
    setup_logs verbose;
    if domains < 1 then
      die_error
        (E.Parse
           { source = "<args>"; line = None; detail = "--domains must be >= 1" });
    let listen = listen_of socket port in
    let config =
      {
        R.Serve.Engine.queue_capacity = queue;
        degrade_watermark =
          (match watermark with Some w -> w | None -> max 1 (queue / 2));
        quota;
        default_timeout_s =
          (if default_timeout <= 0.0 then None else Some default_timeout);
        max_steps_cap;
        drain_deadline_s = drain;
        max_request_bytes = max_bytes;
        read_deadline_s =
          (if read_deadline <= 0.0 then None else Some read_deadline);
        write_deadline_s =
          (if write_deadline <= 0.0 then None else Some write_deadline);
        slow_ms = (if slow_ms <= 0.0 then None else Some slow_ms);
        stats_interval_s = stats_interval;
        stats_windows;
      }
    in
    let code =
      try
        R.Serve.run ~config ~cache_capacity ?metrics_out ?slow_log ?trace_out
          ~domains listen
      with
      | Invalid_argument m ->
        (* config validation (watermark vs capacity etc.) *)
        die_error (E.Parse { source = "<args>"; line = None; detail = m })
      | E.Error e -> die_error e
    in
    exit code
  in
  let doc =
    "Serve repairs over a newline-delimited JSON protocol on a Unix or \
     loopback-TCP socket: watermark admission control (downgrade, then \
     shed), per-request budget and error isolation, a warm FD-set cache, \
     and graceful drain on SIGTERM/SIGINT. Exit status 0 after a clean \
     drain, 10 when the drain deadline cancelled queued requests."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ port_arg $ queue_arg $ watermark_arg
          $ quota_arg $ default_timeout_arg $ max_steps_cap_arg $ drain_arg
          $ max_bytes_arg $ read_deadline_arg $ write_deadline_arg
          $ cache_arg $ metrics_out_arg $ slow_ms_arg $ slow_log_arg
          $ stats_interval_arg $ stats_windows_arg $ trace_arg $ domains_arg
          $ verbose_arg)

let load_cmd =
  let requests_arg =
    let doc = "Repair requests to pipeline at the server." in
    Arg.(value & opt int 50 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let connections_arg =
    let doc = "Concurrent client connections." in
    Arg.(value & opt int 4 & info [ "c"; "connections" ] ~docv:"N" ~doc)
  in
  let op_arg =
    let ops =
      [ ("s-repair", R.Serve.Protocol.S_repair);
        ("u-repair", R.Serve.Protocol.U_repair);
        ("classify", R.Serve.Protocol.Classify) ]
    in
    Arg.(value & opt (enum ops) R.Serve.Protocol.S_repair
         & info [ "op" ] ~doc:"Request op: s-repair, u-repair, classify.")
  in
  let rows_arg =
    let doc = "Rows per generated table." in
    Arg.(value & opt int 30 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let poison_arg =
    let doc = "Make every $(docv)-th request a poison one (garbage FDs)." in
    Arg.(value & opt (some int) None & info [ "poison-every" ] ~docv:"K" ~doc)
  in
  let malformed_arg =
    let doc = "Interleave one raw non-JSON line per $(docv) requests." in
    Arg.(value & opt (some int) None & info [ "malformed-every" ] ~docv:"K" ~doc)
  in
  let wall_arg =
    let doc = "Give up waiting for replies after $(docv) seconds." in
    Arg.(value & opt float 60.0 & info [ "wall-timeout" ] ~docv:"SEC" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload generator seed.")
  in
  let retries_arg =
    let doc =
      "Retry each shed request up to $(docv) times with jittered \
       exponential backoff (deterministic for a given --seed)."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_backoff_arg =
    let doc = "Base backoff in milliseconds for the first retry." in
    Arg.(value & opt int 50 & info [ "retry-backoff" ] ~docv:"MS" ~doc)
  in
  let run socket port requests connections op rows poison malformed timeout
      wall seed retries retry_backoff out verbose =
    setup_logs verbose;
    let listen = listen_of socket port in
    let spec =
      {
        R.Workload.Load_gen.default_spec with
        requests;
        connections;
        op;
        n_rows = rows;
        poison_every = poison;
        malformed_every = malformed;
        timeout_s = timeout;
        wall_timeout_s = wall;
        seed;
        retries;
        retry_backoff_ms = retry_backoff;
      }
    in
    let report =
      try R.Workload.Load_gen.run spec listen with
      | Failure m ->
        let file = R.Serve.Server.listen_name listen in
        die_error (E.Io { file; detail = m })
      | Invalid_argument m ->
        die_error (E.Parse { source = "<args>"; line = None; detail = m })
    in
    let text =
      R.Obs.Json.to_string ~pretty:true
        (R.Workload.Load_gen.report_json report)
      ^ "\n"
    in
    (match out with
    | None -> print_string text
    | Some path -> write_out path text);
    exit (if report.R.Workload.Load_gen.unanswered > 0 then 1 else 0)
  in
  let out_arg =
    let doc = "Write the load report JSON to $(docv) (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let doc =
    "Generate pipelined load against a running $(b,repair-cli serve) \
     daemon and report outcome counts and latency quantiles. Exit status \
     1 if any request went unanswered within --wall-timeout."
  in
  Cmd.v
    (Cmd.info "load" ~doc)
    Term.(const run $ socket_arg $ port_arg $ requests_arg $ connections_arg
          $ op_arg $ rows_arg $ poison_arg $ malformed_arg $ timeout_arg
          $ wall_arg $ seed_arg $ retries_arg $ retry_backoff_arg $ out_arg
          $ verbose_arg)

let top_cmd =
  let interval_arg =
    let doc = "Seconds between dashboard refreshes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC" ~doc)
  in
  let once_arg =
    let doc =
      "Fetch one stats sample, print stable machine-readable 'key value' \
       lines, and exit."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let expo_arg =
    let doc =
      "Print the server's Prometheus-style text exposition instead of \
       the dashboard, and exit."
    in
    Arg.(value & flag & info [ "expo" ] ~doc)
  in
  let run socket port interval once expo verbose =
    setup_logs verbose;
    let listen = listen_of socket port in
    let file = R.Serve.Server.listen_name listen in
    let fetch () =
      match R.Workload.Top.fetch listen with
      | Ok s -> s
      | Error detail -> die_error (E.Io { file; detail })
    in
    if expo then begin
      print_string (R.Workload.Top.exposition (fetch ()));
      exit 0
    end;
    if once then begin
      R.Workload.Top.pp_machine Format.std_formatter (fetch ());
      Format.pp_print_flush Format.std_formatter ();
      exit 0
    end;
    if interval <= 0.0 then
      die_error
        (E.Parse
           { source = "<args>"; line = None; detail = "--interval must be > 0" });
    (* Live loop: home the cursor and clear to end-of-screen per frame
       (no full clears, so the terminal does not flicker); Ctrl-C exits. *)
    let rec loop () =
      let s = fetch () in
      print_string "\027[H\027[J";
      Format.printf "%a@?" R.Workload.Top.pp_dashboard s;
      Unix.sleepf interval;
      loop ()
    in
    loop ()
  in
  let doc =
    "Live operator view of a running $(b,repair-cli serve) daemon: \
     polls the 'stats' op and renders windowed rates, rolling latency \
     tails, gauges, and cumulative totals. $(b,--once) prints one \
     machine-readable sample; $(b,--expo) prints the Prometheus-style \
     text exposition."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(const run $ socket_arg $ port_arg $ interval_arg $ once_arg
          $ expo_arg $ verbose_arg)

let stream_cmd =
  let module Session = R.Stream.Session in
  let module Delta = R.Stream.Delta in
  let deltas_arg =
    let doc =
      "JSONL delta log: one {\"op\":\"insert\",\"tuple\":[...],\"weight\",\
       \"id\"} or {\"op\":\"delete\",\"id\"} object per line."
    in
    Arg.(required & opt (some file) None & info [ "deltas" ] ~docv:"FILE" ~doc)
  in
  let dump_table_arg =
    let doc =
      "Also write the materialized table (base plus applied deltas) to \
       $(docv) — the table a cold $(b,s-repair) run would see."
    in
    Arg.(value & opt (some string) None & info [ "dump-table" ] ~docv:"FILE" ~doc)
  in
  let chunk_arg =
    let doc = "Client mode: delta lines sent per request." in
    Arg.(value & opt int 256 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let read_lines path =
    match R.Runtime.Io_fault.read_file path with
    | text ->
      List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' text)
    | exception E.Error e -> die_error e
  in
  let finish ?dump_table out (r : R.Driver.report) =
    report_header "stream" r;
    Option.iter (fun (path, tbl) -> write_out path (Csv_io.to_string tbl))
      dump_table;
    emit out r.result
  in
  (* Local mode: the session lives in this process; a malformed delta
     line is reported on stderr and the stream keeps going, exactly like
     the daemon keeping a session alive across a rejected request. *)
  let run_local d tbl lines out dump_table =
    let session = or_die_error (E.guard (fun () -> Session.create d tbl)) in
    let rejected = ref 0 in
    List.iter
      (fun (n, line) ->
        if String.trim line <> "" then
          try Session.tick session (Delta.parse ~line:n line)
          with E.Error e ->
            incr rejected;
            Fmt.epr "stream: delta line %d rejected: %a@." n E.pp e)
      lines;
    let r = or_die_error (E.guard (fun () -> Session.summary session)) in
    let st = Session.stats session in
    Fmt.epr "stream: ticks=%d rejected=%d live-rows=%d@." st.Session.ticks
      !rejected st.Session.live;
    let dump_table =
      Option.map (fun p -> (p, Session.materialized session)) dump_table
    in
    finish ?dump_table out r
  in
  (* Client mode: replay the (locally pre-validated) delta log through a
     running daemon's per-connection stream session, chunked so the
     request lines stay under the server's byte limit. *)
  let run_client fds tbl listen lines chunk out dump_table =
    let module Json = R.Obs.Json in
    let module Wire = R.Workload.Wire in
    let io detail =
      die_error (E.Io { file = R.Serve.Server.listen_name listen; detail })
    in
    let valid =
      List.filter_map
        (fun (n, line) ->
          if String.trim line = "" then None
          else
            match Delta.parse ~line:n line with
            | _ -> Some line
            | exception E.Error e ->
              Fmt.epr "stream: delta line %d rejected: %a@." n E.pp e;
              None)
        lines
    in
    let rec chunks = function
      | [] -> []
      | rest ->
        let rec take k acc = function
          | r when k = 0 -> (List.rev acc, r)
          | [] -> (List.rev acc, [])
          | x :: r -> take (k - 1) (x :: acc) r
        in
        let c, rest = take chunk [] rest in
        c :: chunks rest
    in
    let batches = match chunks valid with [] -> [ [] ] | bs -> bs in
    match
      let w = Wire.connect listen in
      Fun.protect ~finally:(fun () -> Wire.close w) @@ fun () ->
      let read_reply () =
        match Wire.read_line w with
        | Some line -> line
        | None -> io "server closed the connection mid-stream"
      in
      let exchange ~first k batch =
        let line =
          R.Serve.Protocol.request_line ~id:(Json.Int k) ~op:R.Serve.Protocol.Stream ~fds
            ?table:(if first then Some (Csv_io.to_string tbl) else None)
            ~deltas:(String.concat "\n" batch) ()
        in
        Wire.send w line;
        match Json.of_string (read_reply ()) with
        | Error m -> io (Printf.sprintf "unparsable reply: %s" m)
        | Ok reply -> (
          match Json.member "ok" reply with
          | Some (Json.Bool true) -> reply
          | _ ->
            let err k' =
              match Option.bind (Json.member "error" reply)
                      (fun e -> Json.member k' e) with
              | Some (Json.String s) -> s
              | _ -> "?"
            in
            die_error
              (E.Parse
                 { source = "<server>"; line = None;
                   detail =
                     Printf.sprintf "stream request refused (%s): %s"
                       (err "class") (err "detail") }))
      in
      let last = List.length batches - 1 in
      List.mapi (fun k batch -> exchange ~first:(k = 0) k batch) batches
      |> fun replies -> List.nth replies last
    with
    | exception Unix.Unix_error (e, _, _) ->
      io (Printf.sprintf "cannot reach server: %s" (Unix.error_message e))
    | reply ->
      let module Json = R.Obs.Json in
      let fstr k = match Json.member k reply with
        | Some (Json.String s) -> s | _ -> "" in
      let ffloat k =
        Option.bind (Json.member k reply) Json.float_value
        |> Option.value ~default:0.0 in
      let fint k =
        Option.bind (Json.member k reply) Json.int_value
        |> Option.value ~default:0 in
      let fbool k = match Json.member k reply with
        | Some (Json.Bool b) -> b | _ -> false in
      let result =
        or_die_error
          (Csv_io.parse_result ~file:"<reply>" ~name:"T" (fstr "table"))
      in
      Fmt.epr "stream: ticks=%d live-rows=%d@." (fint "ticks") (fint "rows");
      let r : R.Driver.report =
        { result; distance = ffloat "distance"; optimal = fbool "optimal";
          ratio = ffloat "ratio"; method_used = fstr "method";
          degraded = false; fallbacks = [] }
      in
      finish out r;
      Option.iter
        (fun p ->
          Fmt.epr "stream: --dump-table is local-mode only; %s not written@." p)
        dump_table
  in
  let run fds input deltas out dump_table socket port chunk verbose metrics
      trace trace_buffer =
    setup_logs verbose;
    if chunk < 1 then
      die_error
        (E.Parse
           { source = "<args>"; line = None; detail = "--chunk must be >= 1" });
    let d = or_die_error (parse_fds fds) in
    let tbl = or_die_error (load_table input) in
    let lines = read_lines deltas in
    match (socket, port) with
    | None, None ->
      with_trace trace trace_buffer @@ fun () ->
      with_metrics metrics @@ fun () -> run_local d tbl lines out dump_table
    | _ -> run_client fds tbl (listen_of socket port) lines chunk out dump_table
  in
  let doc =
    "Maintain a repair incrementally under a JSONL delta log \
     (DESIGN §16): when the FD set is on the polynomial side, each \
     insert/delete re-solves only its own block; on the hard side a \
     summary solves the current table from scratch. Either way the final \
     summary is byte-identical to a cold $(b,s-repair) run on the \
     materialized table. Without $(b,--socket)/$(b,--port) the \
     session runs in-process; with one, the log replays through a \
     running $(b,repair-cli serve) daemon's per-connection stream \
     session. A malformed delta line is rejected on stderr and the \
     stream keeps going. Exit codes are the standard table — streaming \
     adds none."
  in
  Cmd.v
    (Cmd.info "stream" ~doc)
    Term.(const run $ fds_arg $ csv_in $ deltas_arg $ csv_out $ dump_table_arg
          $ socket_arg $ port_arg $ chunk_arg $ verbose_arg $ metrics_arg
          $ trace_arg $ trace_buffer_arg)

let main =
  let doc = "optimal repairs for functional dependencies (PODS'18)" in
  let man =
    [ `S "EXIT STATUS";
      `P "0 on success; 1 on unexpected internal errors; 2 malformed input \
          (FDs, CSV/JSONL rows, inline expressions); 3 file-system errors; \
          4 schema mismatches; 5 budget exhausted under --on-budget=fail; \
          6 a polynomial algorithm was requested outside its tractable \
          class; 7 an exact baseline was refused by its size gate; 8 an \
          injected test fault fired; 9 a batch run finished with \
          quarantined (poison) jobs; 10 a serve drain deadline expired \
          with queued requests still pending (they were cancelled with \
          structured replies); 11 durable state failed its integrity \
          check — a journal record with a bad length prefix, checksum, \
          or payload that a torn tail cannot explain; the damaged \
          suffix was moved to a .corrupt sidecar and replay stopped at \
          the last valid commit point." ]
  in
  Cmd.group
    (Cmd.info "repair-cli" ~version:"1.0.0" ~doc ~man)
    [ classify_cmd; s_repair_cmd; u_repair_cmd; mpd_cmd; generate_cmd; cqa_cmd; normalize_cmd;
      dirtiness_cmd; session_cmd; armstrong_cmd; batch_cmd; profile_cmd;
      serve_cmd; load_cmd; top_cmd; stream_cmd ]

let () = exit (Cmd.eval main)
