(* The journaled batch runner: manifest parsing, journal append/recover,
   retries, quarantine, resume — and the kill-at-every-checkpoint matrix
   that proves crash-safety of the commit protocol. *)

module M = Repair_batch.Manifest
module J = Repair_batch.Journal
module Runner = Repair_batch.Runner
module E = Repair_runtime.Repair_error
module Fault = Repair_runtime.Fault
module R = Repair_core.Repair

(* ---------- helpers ---------- *)

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repair_batch_%d_%d" (Unix.getpid ()) !dir_seq)
  in
  Unix.mkdir d 0o755;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let stub_job id =
  {
    M.id;
    input = id ^ ".csv";
    fds = "A -> B";
    kind = M.S_repair;
    strategy = R.Driver.Auto;
    timeout_s = None;
    max_steps = None;
    on_budget = `Degrade;
    output = None;
  }

let stub_manifest ids = { M.jobs = List.map stub_job ids }

let ok_outcome = { Runner.status = `Ok; distance = 1.0; method_used = "stub" }

let raise_parse detail =
  E.raise_error (E.Parse { source = "stub"; line = None; detail })

let raise_transient () =
  E.raise_error (E.Budget_exhausted { phase = "stub"; elapsed = 0.0; steps = 1 })

(* An executor over a call-count table: deterministic, inspectable. *)
let counting_exec ?(behave = fun _ _ -> ok_outcome) counts (job : M.job) =
  let n = (try Hashtbl.find counts job.id with Not_found -> 0) + 1 in
  Hashtbl.replace counts job.id n;
  behave job.id n

(* ---------- manifest ---------- *)

let manifest_text =
  {|{ "jobs": [
      { "id": "a", "input": "a.csv", "fds": "A -> B" },
      { "id": "b", "input": "b.jsonl", "fds": "A -> B; B -> C",
        "kind": "u-repair", "strategy": "exact",
        "timeout_s": 2.5, "max_steps": 100, "on-budget": "fail",
        "output": "b.out.jsonl" } ] }|}

let test_manifest_parse () =
  let m = M.parse_string manifest_text in
  Alcotest.(check int) "two jobs" 2 (List.length m.jobs);
  let a = List.nth m.jobs 0 and b = List.nth m.jobs 1 in
  Alcotest.(check bool) "a defaults" true
    (a.kind = M.S_repair && a.strategy = R.Driver.Auto && a.on_budget = `Degrade
    && a.timeout_s = None && a.max_steps = None && a.output = None);
  Alcotest.(check bool) "b explicit" true
    (b.kind = M.U_repair && b.strategy = R.Driver.Exact && b.on_budget = `Fail
    && b.timeout_s = Some 2.5 && b.max_steps = Some 100
    && b.output = Some "b.out.jsonl")

let test_manifest_errors () =
  let parse_error s =
    try ignore (M.parse_string s); false with E.Error (E.Parse _) -> true
  in
  Alcotest.(check bool) "malformed json" true (parse_error "{");
  Alcotest.(check bool) "no jobs array" true (parse_error "{}");
  Alcotest.(check bool) "empty job list" true (parse_error {|{"jobs": []}|});
  Alcotest.(check bool) "missing id" true
    (parse_error {|{"jobs": [{"input": "x", "fds": "A -> B"}]}|});
  Alcotest.(check bool) "missing fds" true
    (parse_error {|{"jobs": [{"id": "a", "input": "x"}]}|});
  Alcotest.(check bool) "unknown strategy" true
    (parse_error
       {|{"jobs": [{"id": "a", "input": "x", "fds": "F", "strategy": "magic"}]}|});
  Alcotest.(check bool) "duplicate id is a schema error" true
    (try
       ignore
         (M.parse_string
            {|{"jobs": [{"id": "a", "input": "x", "fds": "F"},
                        {"id": "a", "input": "y", "fds": "F"}]}|});
       false
     with E.Error (E.Schema_mismatch _) -> true);
  (match M.load_result "/nonexistent/manifest.json" with
  | Error (E.Io _) -> ()
  | _ -> Alcotest.fail "unreadable manifest must be Io")

(* ---------- journal ---------- *)

let all_entries =
  [ J.Begin { jobs = 3 };
    J.Start { job = "a"; attempt = 1 };
    J.Retry { job = "a"; attempt = 1; error = "budget-exhausted"; backoff_ms = 100 };
    J.Commit
      { job = "a"; attempt = 2; status = `Degraded; method_used = "m";
        distance = 2.5; wall_ms = 12.5; counters = [ ("ticks.y", 3) ] };
    J.Quarantine
      { job = "b"; attempts = 3; error = "parse"; detail = "bad row";
        counters = [ ("ticks.x", 7) ] } ]

let test_journal_roundtrip () =
  List.iter
    (fun e ->
      match J.entry_of_json (J.entry_to_json e) with
      | Ok e' -> Alcotest.(check bool) "roundtrips" true (e = e')
      | Error m -> Alcotest.fail m)
    all_entries;
  (match J.entry_of_json (Repair_obs.Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing event must not parse")

let test_journal_append_recover () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.jsonl" in
  let w = J.open_append path in
  List.iter (J.append w) all_entries;
  J.close w;
  let r = J.recover path in
  Alcotest.(check bool) "clean journal untouched" false r.truncated;
  Alcotest.(check int) "all entries survive" (List.length all_entries)
    (List.length r.entries);
  Alcotest.(check int) "terminal map" 2 (List.length r.committed)

let test_journal_truncates_uncommitted_tail () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.jsonl" in
  let w = J.open_append path in
  J.append w (J.Begin { jobs = 2 });
  J.append w (J.Start { job = "a"; attempt = 1 });
  J.append w
    (J.Commit
       { job = "a"; attempt = 1; status = `Ok; method_used = "m";
         distance = 0.0; wall_ms = 0.0; counters = [] });
  let committed_bytes = read_file path in
  (* a dangling start plus a torn half-line: crash mid-job, mid-write *)
  J.append w (J.Start { job = "b"; attempt = 1 });
  J.close w;
  write_file path (read_file path ^ {|{"event":"comm|});
  let r = J.recover path in
  Alcotest.(check bool) "tail discarded" true r.truncated;
  Alcotest.(check int) "prefix survives" 3 (List.length r.entries);
  Alcotest.(check string) "file truncated to committed prefix" committed_bytes
    (read_file path);
  (* recovery is idempotent *)
  let r2 = J.recover path in
  Alcotest.(check bool) "second pass clean" false r2.truncated

(* Byte-level damage matrix: flip a bit in every byte of a committed
   framed journal, and separately truncate it at every offset. Recovery
   must classify every outcome — torn tail (truncate silently) or
   corruption (quarantine the damaged suffix to the sidecar, truncate to
   the last valid commit point, raise the structured class) — and a
   subsequent resume must never re-execute a job whose terminal record
   survived. Never an unclassified exception. *)
let test_journal_corruption_matrix () =
  let dir = fresh_dir () in
  let pristine_path = Filename.concat dir "pristine.jsonl" in
  ignore
    (Runner.run
       ~exec:(counting_exec (Hashtbl.create 8))
       ~journal:pristine_path
       (stub_manifest [ "a"; "b" ]));
  let pristine = read_file pristine_path in
  let n = String.length pristine in
  let scratch = Filename.concat dir "mutated.jsonl" in
  let check_resume what =
    let survivors = (J.recover scratch).J.committed in
    let counts = Hashtbl.create 8 in
    ignore
      (Runner.run ~resume:true ~exec:(counting_exec counts) ~journal:scratch
         (stub_manifest [ "a"; "b" ]));
    List.iter
      (fun (id, _) ->
        if Hashtbl.mem counts id then
          Alcotest.failf "%s: job %s re-executed past its terminal record"
            what id)
      survivors
  in
  let corruptions = ref 0 and survived = ref 0 in
  for i = 0 to n - 1 do
    let mutated = Bytes.of_string pristine in
    Bytes.set mutated i (Char.chr (Char.code pristine.[i] lxor 1));
    write_file scratch (Bytes.to_string mutated);
    (match J.recover scratch with
    | (_ : J.recovery) -> incr survived (* torn tail or harmless *)
    | exception E.Error (E.Corruption _) ->
      incr corruptions;
      Alcotest.(check bool)
        "damage quarantined to sidecar" true
        (Sys.file_exists (J.corrupt_sidecar scratch));
      Sys.remove (J.corrupt_sidecar scratch);
      (* the trusted prefix must now recover silently *)
      ignore (J.recover scratch)
    | exception exn ->
      Alcotest.failf "bit flip at byte %d/%d escaped classification: %s" i n
        (Printexc.to_string exn));
    check_resume (Printf.sprintf "flip at byte %d" i);
    Sys.remove scratch
  done;
  (* a checksummed journal cannot fail to notice mid-file damage *)
  Alcotest.(check bool) "some flips detected as corruption" true
    (!corruptions > 0);
  Alcotest.(check bool) "flipping the final newline reads as torn" true
    (!survived > 0);
  (* an interrupted append is always a torn tail, never corruption *)
  for i = 0 to n - 1 do
    write_file scratch (String.sub pristine 0 i);
    (match J.recover scratch with
    | (_ : J.recovery) -> ()
    | exception exn ->
      Alcotest.failf "truncation at byte %d raised: %s" i
        (Printexc.to_string exn));
    check_resume (Printf.sprintf "truncation at byte %d" i);
    Sys.remove scratch
  done

(* Journals written before framing are plain JSONL. The first line
   fails the frame grammar, so recovery refuses the file as corruption at
   byte 0: every byte moves to the sidecar and the journal is emptied.
   The next resume starts over in framed records. A framed commit
   written before telemetry still reads with its defaults. *)
let test_journal_legacy_format () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "legacy.jsonl" in
  let commit_without_telemetry =
    {|{"event":"commit","job":"a","attempt":1,"status":"ok","method":"m","distance":1.0}|}
  in
  let legacy =
    {|{"event":"begin","jobs":2}|} ^ "\n"
    ^ {|{"event":"start","job":"a","attempt":1}|} ^ "\n"
    ^ commit_without_telemetry ^ "\n"
  in
  write_file path legacy;
  (match J.recover path with
  | (_ : J.recovery) -> Alcotest.fail "plain JSONL journal not refused"
  | exception E.Error (E.Corruption { offset; _ }) ->
    Alcotest.(check int) "refused at byte 0" 0 offset;
    Alcotest.(check string) "sidecar holds the original bytes" legacy
      (read_file (J.corrupt_sidecar path));
    Alcotest.(check string) "journal emptied" "" (read_file path));
  (* the next resume runs every job and writes only framed records *)
  let counts = Hashtbl.create 8 in
  let s =
    Runner.run ~resume:true ~exec:(counting_exec counts) ~journal:path
      (stub_manifest [ "a"; "b" ])
  in
  Alcotest.(check int) "nothing replayed" 0 s.Runner.replayed;
  Alcotest.(check int) "a executed once" 1 (Hashtbl.find counts "a");
  Alcotest.(check int) "b executed once" 1 (Hashtbl.find counts "b");
  Alcotest.(check bool) "only framed records" true
    (List.for_all
       (fun l -> l = "" || l.[0] = '@')
       (String.split_on_char '\n' (read_file path)));
  (* a framed commit without wall_ms and counters reads them as defaults *)
  let old = Filename.concat dir "pre-telemetry.jsonl" in
  write_file old
    (J.frame {|{"event":"begin","jobs":1}|} ^ J.frame commit_without_telemetry);
  match List.assoc "a" (J.recover old).J.committed with
  | J.Commit { wall_ms; counters; _ } ->
    Alcotest.(check (float 0.0)) "missing wall_ms reads as zero" 0.0 wall_ms;
    Alcotest.(check int) "missing counters read as empty" 0
      (List.length counters)
  | _ -> Alcotest.fail "terminal record for a is not a commit"

(* ---------- runner ---------- *)

let test_runner_happy_path () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let s =
    Runner.run ~exec:(counting_exec counts) ~journal (stub_manifest [ "a"; "b" ])
  in
  Alcotest.(check int) "total" 2 s.total;
  Alcotest.(check int) "ok" 2 s.ok;
  Alcotest.(check int) "quarantined" 0 s.quarantined;
  Alcotest.(check int) "each executed once" 1 (Hashtbl.find counts "a");
  let r = J.recover journal in
  Alcotest.(check int) "begin + 2*(start,commit)" 5 (List.length r.entries)

let test_runner_refuses_existing_journal () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  ignore (Runner.run ~exec:(counting_exec counts) ~journal (stub_manifest [ "a" ]));
  Alcotest.(check bool) "second run without --resume refused" true
    (try
       ignore
         (Runner.run ~exec:(counting_exec counts) ~journal
            (stub_manifest [ "a" ]));
       false
     with E.Error (E.Io _) -> true);
  Alcotest.(check bool) "manifest drift under resume refused" true
    (try
       ignore
         (Runner.run ~resume:true ~exec:(counting_exec counts) ~journal
            (stub_manifest [ "a"; "b" ]));
       false
     with E.Error (E.Schema_mismatch _) -> true)

let test_runner_retries_then_succeeds () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let behave id n =
    if id = "flaky" && n <= 2 then raise_transient () else ok_outcome
  in
  let s =
    Runner.run ~retries:3 ~backoff_ms:1 ~exec:(counting_exec ~behave counts)
      ~journal
      (stub_manifest [ "flaky"; "solid" ])
  in
  Alcotest.(check int) "ok" 2 s.ok;
  Alcotest.(check int) "retried twice" 2 s.retried;
  Alcotest.(check int) "three attempts" 3 (Hashtbl.find counts "flaky");
  let retry_backoffs =
    List.filter_map
      (function J.Retry { backoff_ms; _ } -> Some backoff_ms | _ -> None)
      (J.recover journal).entries
  in
  Alcotest.(check (list int)) "exponential backoff on record" [ 1; 2 ]
    retry_backoffs

let test_runner_quarantines () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let behave id _ =
    match id with
    | "poison" -> raise_parse "bad row"
    | "exhausts" -> raise_transient ()
    | "crashes" -> failwith "unexpected"
    | _ -> ok_outcome
  in
  let s =
    Runner.run ~retries:1 ~exec:(counting_exec ~behave counts) ~journal
      (stub_manifest [ "poison"; "exhausts"; "crashes"; "fine" ])
  in
  Alcotest.(check int) "batch survives every failure" 4 s.total;
  Alcotest.(check int) "ok" 1 s.ok;
  Alcotest.(check int) "quarantined" 3 s.quarantined;
  (* permanent errors are not retried; transients use every attempt *)
  Alcotest.(check int) "poison tried once" 1 (Hashtbl.find counts "poison");
  Alcotest.(check int) "transient exhausted retries" 2
    (Hashtbl.find counts "exhausts");
  Alcotest.(check int) "crash tried once" 1 (Hashtbl.find counts "crashes");
  let quarantined =
    List.filter_map
      (function
        | J.Quarantine { job; error; attempts; _ } -> Some (job, error, attempts)
        | _ -> None)
      (J.recover journal).entries
  in
  Alcotest.(check bool) "classes recorded" true
    (quarantined
    = [ ("poison", "parse", 1); ("exhausts", "budget-exhausted", 2);
        ("crashes", "internal", 1) ])

let test_runner_full_resume_is_noop () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let behave id _ = if id = "poison" then raise_parse "bad" else ok_outcome in
  let exec = counting_exec ~behave counts in
  ignore (Runner.run ~exec ~journal (stub_manifest [ "a"; "poison"; "b" ]));
  let bytes = read_file journal in
  Hashtbl.reset counts;
  let s = Runner.run ~resume:true ~exec ~journal (stub_manifest [ "a"; "poison"; "b" ]) in
  Alcotest.(check int) "everything replayed" 3 s.replayed;
  Alcotest.(check int) "quarantine state replayed too" 1 s.quarantined;
  Alcotest.(check int) "nothing executed" 0 (Hashtbl.length counts);
  Alcotest.(check string) "journal bytes unchanged" bytes (read_file journal)

let test_summary_latency_histograms () =
  let module H = Repair_obs.Histogram in
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let behave id _ = if id = "poison" then raise_parse "bad" else ok_outcome in
  let exec = counting_exec ~behave counts in
  let s = Runner.run ~exec ~journal (stub_manifest [ "a"; "poison"; "b" ]) in
  Alcotest.(check int) "committed jobs only" 2 (H.count s.latency);
  (match s.latency_by_method with
  | [ ("stub", h) ] -> Alcotest.(check int) "by-method count" 2 (H.count h)
  | _ -> Alcotest.fail "expected exactly the \"stub\" method histogram");
  (* resume: replayed jobs reload their commit latency from the journal,
     so the resumed run's histogram matches the uninterrupted one *)
  let s2 =
    Runner.run ~resume:true ~exec ~journal (stub_manifest [ "a"; "poison"; "b" ])
  in
  Alcotest.(check int) "replayed latencies counted" 2 (H.count s2.latency);
  let journal_walls =
    List.filter_map
      (function
        | J.Commit { job; wall_ms; _ } -> Some (job, wall_ms) | _ -> None)
      (J.recover journal).entries
  in
  List.iter
    (fun (r : Runner.job_result) ->
      match r.state with
      | Runner.Committed _ ->
        Alcotest.(check (float 0.0))
          ("replayed wall_ms read back from journal: " ^ r.job.M.id)
          (List.assoc r.job.M.id journal_walls)
          r.wall_ms
      | Runner.Quarantined _ -> ())
    s2.results;
  let j = Runner.summary_json s2 in
  let mem k o = Repair_obs.Json.member k o in
  (match Option.bind (mem "latency" j) (mem "p99_ms") with
  | Some _ -> ()
  | None -> Alcotest.fail "summary latency lacks p99_ms");
  match Option.bind (mem "latency_by_method" j) (mem "stub") with
  | Some _ -> ()
  | None -> Alcotest.fail "summary lacks the per-method histogram"

(* ---------- the kill-at-every-checkpoint matrix ---------- *)

(* The runner ticks a phase-"batch" budget checkpoint after the Begin
   header and then three times per job (before Start, after Start, after
   the terminal record), so a 5-job single-attempt run has exactly
   1 + 3*5 = 16 checkpoints. Arming [Fault.Fail] at checkpoint [k]
   simulates kill -9 between two journal writes: the error escapes
   [Runner.run] (the runner's own ticks sit outside per-job isolation).
   Crash-safety means: for every k, crash-at-k then resume yields a
   journal byte-for-byte identical to the uninterrupted run's — after
   zeroing [wall_ms], the one wall-clock field Commit records carry —
   and no job whose terminal record was durable at the crash is
   executed again. *)

(* Zero the wall_ms telemetry field, the journal's one wall-clock value.
   Framed lines are unwrapped, normalized, and re-framed (the length
   prefix and CRC are pure functions of the payload, so normalized
   journals are still byte-comparable). *)
let reframe payload =
  Printf.sprintf "@%d:%s:%s" (String.length payload)
    (Repair_batch.Crc32.to_hex (Repair_batch.Crc32.string payload))
    payload

let normalize_journal text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if line = "" then line
         else
           let payload, framed =
             if line.[0] = '@' then
               match String.index_opt line ':' with
               | Some c1 when String.length line >= c1 + 10 ->
                 ( String.sub line (c1 + 10) (String.length line - c1 - 10),
                   true )
               | _ -> (line, false)
             else (line, false)
           in
           match Repair_obs.Json.of_string payload with
           | Ok (Repair_obs.Json.Obj fields) ->
             let normalized =
               Repair_obs.Json.to_string
                 (Repair_obs.Json.Obj
                    (List.map
                       (fun (k, v) ->
                         if k = "wall_ms" then (k, Repair_obs.Json.Float 0.0)
                         else (k, v))
                       fields))
             in
             if framed then reframe normalized else normalized
           | Ok _ | Error _ -> line)
  |> String.concat "\n"

let matrix_ids = [ "j1"; "j2"; "poison"; "j4"; "j5" ]

let matrix_checkpoints = 1 + (3 * List.length matrix_ids)

let matrix_behave id _ =
  if id = "poison" then raise_parse "bad row" else ok_outcome

let run_matrix ~journal counts ~resume =
  Runner.run ~resume ~exec:(counting_exec ~behave:matrix_behave counts)
    ~journal (stub_manifest matrix_ids)

let test_crash_resume_matrix () =
  (* reference: the uninterrupted run *)
  let ref_dir = fresh_dir () in
  let ref_journal = Filename.concat ref_dir "j.jsonl" in
  ignore (run_matrix ~journal:ref_journal (Hashtbl.create 8) ~resume:false);
  let reference = normalize_journal (read_file ref_journal) in
  for k = 1 to matrix_checkpoints do
    let dir = fresh_dir () in
    let journal = Filename.concat dir "j.jsonl" in
    let counts = Hashtbl.create 8 in
    Fault.arm ~phase:"batch" ~at:k Fault.Fail;
    (match run_matrix ~journal counts ~resume:false with
    | _ -> Alcotest.failf "checkpoint %d: fault did not fire" k
    | exception E.Error (E.Fault_injected _) -> ());
    Fault.disarm ();
    (* which jobs were durable at the crash — and their exec counts *)
    let committed = (J.recover journal).committed in
    let committed_counts =
      List.map
        (fun (id, _) ->
          (id, try Hashtbl.find counts id with Not_found -> 0))
        committed
    in
    let s = run_matrix ~journal counts ~resume:true in
    Alcotest.(check int) (Printf.sprintf "checkpoint %d: all jobs land" k)
      (List.length matrix_ids) s.total;
    Alcotest.(check int)
      (Printf.sprintf "checkpoint %d: committed jobs replayed" k)
      (List.length committed) s.replayed;
    Alcotest.(check string)
      (Printf.sprintf "checkpoint %d: journal byte-identical to reference" k)
      reference
      (normalize_journal (read_file journal));
    List.iter
      (fun (id, n) ->
        Alcotest.(check int)
          (Printf.sprintf "checkpoint %d: %s not executed past its commit" k id)
          n
          (try Hashtbl.find counts id with Not_found -> 0))
      committed_counts
  done;
  (* the checkpoint count is exact: one past the end never fires *)
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let s =
    Fault.with_fault ~phase:"batch" ~at:(matrix_checkpoints + 1) Fault.Fail
      (fun () -> run_matrix ~journal (Hashtbl.create 8) ~resume:false)
  in
  Alcotest.(check int) "run past the last checkpoint completes" 5 s.total

(* The same matrix on a 4-domain pool: speculative parallel first
   attempts must not change the journal. Crash at every checkpoint,
   resume on the pool, and require the journal byte-identical (modulo
   wall_ms) to the uninterrupted *sequential* reference — the strongest
   form of the DESIGN §13 contract for the batch runner. The exec
   call-count table is mutex-guarded because first attempts now run on
   worker domains. *)
let test_crash_resume_matrix_par () =
  let locked_exec lock counts job =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> counting_exec ~behave:matrix_behave counts job)
  in
  let ref_dir = fresh_dir () in
  let ref_journal = Filename.concat ref_dir "j.jsonl" in
  ignore (run_matrix ~journal:ref_journal (Hashtbl.create 8) ~resume:false);
  let reference = normalize_journal (read_file ref_journal) in
  let pool = Repair_par.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Repair_par.Pool.shutdown pool)
    (fun () ->
      let run_par ~journal counts ~resume =
        let lock = Mutex.create () in
        Runner.run ~pool ~resume ~exec:(locked_exec lock counts) ~journal
          (stub_manifest matrix_ids)
      in
      (* uninterrupted pooled run: already byte-identical *)
      let dir = fresh_dir () in
      let journal = Filename.concat dir "j.jsonl" in
      ignore (run_par ~journal (Hashtbl.create 8) ~resume:false);
      Alcotest.(check string) "pooled journal = sequential reference"
        reference
        (normalize_journal (read_file journal));
      for k = 1 to matrix_checkpoints do
        let dir = fresh_dir () in
        let journal = Filename.concat dir "j.jsonl" in
        let counts = Hashtbl.create 8 in
        Fault.arm ~phase:"batch" ~at:k Fault.Fail;
        (match run_par ~journal counts ~resume:false with
        | _ -> Alcotest.failf "checkpoint %d: fault did not fire" k
        | exception E.Error (E.Fault_injected _) -> ());
        Fault.disarm ();
        let committed = (J.recover journal).committed in
        let s = run_par ~journal counts ~resume:true in
        Alcotest.(check int)
          (Printf.sprintf "checkpoint %d: committed jobs replayed" k)
          (List.length committed) s.replayed;
        Alcotest.(check string)
          (Printf.sprintf
             "checkpoint %d: resumed pooled journal = sequential reference" k)
          reference
          (normalize_journal (read_file journal))
      done)

(* A mid-solver fault (no phase filter) fires inside [exec], where the
   per-job isolation catches it as a transient, retryable failure — a
   crash of the job, not of the runner. *)
let test_solver_fault_is_per_job () =
  let dir = fresh_dir () in
  let journal = Filename.concat dir "j.jsonl" in
  let counts = Hashtbl.create 8 in
  let behave id n =
    if id = "a" && n = 1 then
      E.raise_error (E.Fault_injected { phase = "solver"; checkpoint = 1 })
    else ok_outcome
  in
  let s =
    Runner.run ~retries:1 ~exec:(counting_exec ~behave counts) ~journal
      (stub_manifest [ "a"; "b" ])
  in
  Alcotest.(check int) "both jobs committed" 2 s.ok;
  Alcotest.(check int) "one retry" 1 s.retried

(* ---------- driver-wired executor ---------- *)

let test_batch_with_driver () =
  let dir = fresh_dir () in
  let path name = Filename.concat dir name in
  write_file (path "office.csv")
    "#id,#weight,facility,room,floor,city\n\
     1,2,HQ,322,3,Paris\n\
     2,1,HQ,322,30,Madrid\n\
     3,1,HQ,122,1,Madrid\n";
  write_file (path "broken.csv") "#id,A,B\n1,1,2,extra\n";
  let manifest =
    M.parse_string
      (Printf.sprintf
         {|{ "jobs": [
             { "id": "office", "input": "%s",
               "fds": "facility -> city; facility room -> floor",
               "output": "%s" },
             { "id": "badfds", "input": "%s", "fds": "A -> " },
             { "id": "broken", "input": "%s", "fds": "A -> B" } ] }|}
         (path "office.csv") (path "office.out.csv") (path "office.csv")
         (path "broken.csv"))
  in
  let s = R.Batch.run ~journal:(path "j.jsonl") manifest in
  Alcotest.(check int) "office repaired" 1 s.ok;
  Alcotest.(check int) "bad FDs and bad rows quarantined" 2 s.quarantined;
  Alcotest.(check bool) "repaired table written" true
    (Sys.file_exists (path "office.out.csv"));
  let t = R.Relational.Csv_io.load ~name:"office" (path "office.out.csv") in
  Alcotest.(check int) "one tuple deleted" 2 (R.Relational.Table.size t)

(* Inputs the driver refuses are poison under their own class. An FD
   attribute missing from the table used to escape as an internal
   Not_found; weights summing past max_float used to commit a wrong
   repair whose infinite distance the summary printed as null. *)
let test_batch_refused_inputs () =
  let dir = fresh_dir () in
  let path name = Filename.concat dir name in
  write_file (path "ab.csv") "A,B\n1,1\n1,2\n";
  write_file (path "heavy.csv")
    "#id,#weight,A,B\n\
     1,1e308,0,1\n2,1e308,0,1\n3,1e308,0,2\n4,1e308,0,2\n5,1e308,0,2\n";
  let manifest =
    M.parse_string
      (Printf.sprintf
         {|{ "jobs": [
             { "id": "missing", "input": "%s", "fds": "A -> C" },
             { "id": "heavy-s", "input": "%s", "fds": " -> B" },
             { "id": "heavy-u", "input": "%s", "fds": "A -> B",
               "kind": "u-repair" } ] }|}
         (path "ab.csv") (path "heavy.csv") (path "heavy.csv"))
  in
  let s = R.Batch.run ~journal:(path "j.jsonl") manifest in
  Alcotest.(check (list (pair string string)))
    "quarantine classes"
    [ ("missing", "schema-mismatch"); ("heavy-s", "parse");
      ("heavy-u", "parse") ]
    (List.map
       (fun (r : Runner.job_result) ->
         ( r.job.id,
           match r.state with
           | Runner.Quarantined q -> q.error
           | Runner.Committed _ -> "committed" ))
       s.results);
  let module Json = R.Obs.Json in
  let jobs =
    Option.bind
      (Json.member "jobs" (Runner.summary_json s))
      Json.list_value
    |> Option.get
  in
  Alcotest.(check bool) "no null distance" true
    (List.for_all (fun j -> Json.member "distance" j <> Some Json.Null) jobs)

(* File errors are class io, and their detail names the path once. A
   missing output directory used to be an internal Sys_error, and a
   missing input read "PATH: PATH: No such file or directory". *)
let test_batch_io_errors () =
  let dir = fresh_dir () in
  let path name = Filename.concat dir name in
  write_file (path "ab.csv") "A,B\n1,1\n1,2\n";
  let out = path "no-such-dir/out.csv" and gone = path "gone.csv" in
  let manifest =
    M.parse_string
      (Printf.sprintf
         {|{ "jobs": [
             { "id": "no-dir", "input": "%s", "fds": "A -> B",
               "output": "%s" },
             { "id": "no-input", "input": "%s", "fds": "A -> B" } ] }|}
         (path "ab.csv") out gone)
  in
  let s = R.Batch.run ~journal:(path "j.jsonl") manifest in
  Alcotest.(check (list (triple string string string)))
    "io quarantines"
    [ ("no-dir", "io", out ^ ": No such file or directory");
      ("no-input", "io", gone ^ ": No such file or directory") ]
    (List.map
       (fun (r : Runner.job_result) ->
         match r.state with
         | Runner.Quarantined q -> (r.job.id, q.error, q.detail)
         | Runner.Committed _ -> (r.job.id, "committed", ""))
       s.results)

(* The exact rung takes at most S_exact.size_limit rows even when a job
   asks for it by name: under "fail" a larger hard table is quarantined
   as size-limit, and under the default "degrade" it commits the
   approximation. *)
let test_batch_exact_size_limit () =
  let dir = fresh_dir () in
  let path name = Filename.concat dir name in
  let rows =
    List.init 65 (fun k -> Printf.sprintf "%d,%d,%d" (k mod 5) (k mod 3) (k mod 2))
  in
  write_file (path "hard.csv") (String.concat "\n" ("A,B,C" :: rows) ^ "\n");
  let manifest =
    M.parse_string
      (Printf.sprintf
         {|{ "jobs": [
             { "id": "exact-fail", "input": "%s", "fds": "A -> B; B -> C",
               "strategy": "exact", "on-budget": "fail" },
             { "id": "exact-degrade", "input": "%s", "fds": "A -> B; B -> C",
               "strategy": "exact" } ] }|}
         (path "hard.csv") (path "hard.csv"))
  in
  let s = R.Batch.run ~journal:(path "j.jsonl") manifest in
  Alcotest.(check (list (pair string string)))
    "outcomes"
    [ ("exact-fail", "size-limit"); ("exact-degrade", "committed") ]
    (List.map
       (fun (r : Runner.job_result) ->
         ( r.job.id,
           match r.state with
           | Runner.Quarantined q -> q.error
           | Runner.Committed _ -> "committed" ))
       s.results)

let () =
  Alcotest.run "batch"
    [ ( "manifest",
        [ Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "errors" `Quick test_manifest_errors ] );
      ( "journal",
        [ Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "append/recover" `Quick test_journal_append_recover;
          Alcotest.test_case "corruption matrix" `Quick
            test_journal_corruption_matrix;
          Alcotest.test_case "legacy format" `Quick test_journal_legacy_format;
          Alcotest.test_case "truncates tail" `Quick
            test_journal_truncates_uncommitted_tail ] );
      ( "runner",
        [ Alcotest.test_case "happy path" `Quick test_runner_happy_path;
          Alcotest.test_case "refuses stale journal" `Quick
            test_runner_refuses_existing_journal;
          Alcotest.test_case "retries" `Quick test_runner_retries_then_succeeds;
          Alcotest.test_case "quarantine" `Quick test_runner_quarantines;
          Alcotest.test_case "full resume" `Quick test_runner_full_resume_is_noop;
          Alcotest.test_case "latency histograms" `Quick
            test_summary_latency_histograms;
          Alcotest.test_case "solver fault is per-job" `Quick
            test_solver_fault_is_per_job ] );
      ( "crash-resume",
        [ Alcotest.test_case "kill at every checkpoint" `Quick
            test_crash_resume_matrix;
          Alcotest.test_case "kill at every checkpoint, 4-domain pool" `Quick
            test_crash_resume_matrix_par ] );
      ( "driver",
        [ Alcotest.test_case "end to end" `Quick test_batch_with_driver;
          Alcotest.test_case "refused inputs" `Quick
            test_batch_refused_inputs;
          Alcotest.test_case "exact size limit" `Quick
            test_batch_exact_size_limit;
          Alcotest.test_case "io errors" `Quick test_batch_io_errors ] ) ]
