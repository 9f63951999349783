(* repair-fuzz — differential fuzzer: cross-checks the polynomial
   algorithms against exponential baselines on random instances. Exits
   nonzero (printing the failing seed) on the first discrepancy, so it can
   run in CI or overnight.

   Checks per trial:
     1. OptSRepair succeeds iff OSRSucceeds (Algorithm 1 vs Algorithm 2);
     2. when it succeeds, its distance matches the exact vertex-cover
        baseline, and the result is a consistent subset;
     3. the 2-approximation respects its bound;
     4. when the U-repair solver claims tractability, its distance matches
        the exhaustive update search (small instances);
     5. the combined U-approximation is consistent and within its
        certificate (small instances);
     6. enumerated S-repairs are exactly maximal consistent subsets, and
        the polynomial optimum count agrees on chain sets;
     7. MPD via the reduction matches brute force (small instances);
     8. under a random step budget with the degrade policy, the driver
        still returns a consistent repair, and the degraded flag agrees
        with the recorded fallback edges.  *)

open Cmdliner
module R = Repair_core.Repair
open R.Relational
open R.Fd
module Rng = R.Workload.Rng
module Gen_fd = R.Workload.Gen_fd
module Gen_table = R.Workload.Gen_table

let close a b = Float.abs (a -. b) < 1e-6

exception Found of string

let fail fmt = Fmt.kstr (fun m -> raise (Found m)) fmt

let check_s_repair d t =
  match R.Srepair.Opt_s_repair.run d t with
  | Ok s ->
    if not (R.Dichotomy.Simplify.succeeds d) then
      fail "OptSRepair succeeded but OSRSucceeds says hard: %a" Fd_set.pp d;
    if not (R.Srepair.S_check.is_consistent_subset d ~of_:t s) then
      fail "OptSRepair produced a non-subset or inconsistent result";
    let exact = R.Srepair.S_exact.distance d t in
    if not (close (Table.dist_sub s t) exact) then
      fail "OptSRepair distance %g != exact %g under %a" (Table.dist_sub s t)
        exact Fd_set.pp d
  | Error _ ->
    if R.Dichotomy.Simplify.succeeds d then
      fail "OptSRepair failed but OSRSucceeds says tractable: %a" Fd_set.pp d

let check_approx d t =
  let apx = R.Srepair.S_approx.distance d t in
  let exact = R.Srepair.S_exact.distance d t in
  if apx > (2.0 *. exact) +. 1e-6 then
    fail "2-approximation %g exceeds 2x optimum %g under %a" apx exact
      Fd_set.pp d

let check_u_repair d t =
  if Table.size t * Schema.arity (Table.schema t) <= 12 then
    match R.Urepair.Opt_u_repair.solve d t with
    | Ok u ->
      if not (Fd_set.satisfied_by d u) then
        fail "U-repair solver produced inconsistent update under %a"
          Fd_set.pp d;
      let exact = R.Urepair.U_exact.distance ~max_cells:12 d t in
      if not (close (Table.dist_upd u t) exact) then
        fail "U-repair distance %g != exhaustive %g under %a"
          (Table.dist_upd u t) exact Fd_set.pp d
    | Error _ -> ()

let check_enumeration d t =
  if Table.size t <= 7 then begin
    (* enumerated repairs must be exactly the maximal consistent subsets,
       and on chain sets the polynomial count must agree. *)
    let reps = R.Enumerate.Enumerate.s_repairs d t in
    List.iter
      (fun s ->
        if not (R.Srepair.S_check.is_s_repair d ~of_:t s) then
          fail "enumeration produced a non-repair under %a" Fd_set.pp d)
      reps;
    if Fd_set.is_chain d then
      match R.Enumerate.Count.optimal_s_repairs d t with
      | Ok c ->
        let enumerated =
          List.length (R.Enumerate.Enumerate.optimal_s_repairs d t)
        in
        if c <> enumerated then
          fail "count %d != enumerated optima %d under %a" c enumerated
            Fd_set.pp d
      | Error _ -> ()
  end

let check_u_approx d t =
  let u, ratio = R.Urepair.U_approx.best d t in
  if not (Fd_set.satisfied_by d u) then
    fail "U_approx.best inconsistent under %a" Fd_set.pp d;
  if Table.size t * Schema.arity (Table.schema t) <= 9 then begin
    let opt = R.Urepair.U_exact.distance ~max_cells:9 d t in
    if Table.dist_upd u t > (ratio *. opt) +. 1e-6 then
      fail "U_approx.best exceeds its certificate under %a" Fd_set.pp d
  end

let check_mpd d t =
  if Table.size t <= 8 && R.Dichotomy.Simplify.succeeds d then begin
    let pt =
      R.Mpd.Prob_table.of_table (Table.map_weights t (fun _ _ -> 0.75))
    in
    match R.Mpd.Mpd.solve ~strategy:R.Mpd.Mpd.Poly d pt with
    | Ok (Some world) ->
      let bf = R.Mpd.Mpd.brute_force d pt in
      if
        not
          (close
             (R.Mpd.Prob_table.log_probability pt world)
             (R.Mpd.Prob_table.log_probability pt bf))
      then fail "MPD reduction suboptimal under %a" Fd_set.pp d
    | Ok None -> fail "MPD returned None without certain tuples"
    | Error _ -> fail "MPD Poly failed although OSRSucceeds holds"
  end

let check_budgeted rng d t =
  (* A fresh budget per call — budgets are single-use accumulators. *)
  let max_steps = Rng.in_range rng 1 50 in
  let budget () = R.Runtime.Budget.create ~max_steps () in
  (match
     R.Driver.s_repair_result ~budget:(budget ()) ~on_budget:`Degrade d t
   with
  | Ok r ->
    if not (R.Srepair.S_check.is_consistent_subset d ~of_:t r.result) then
      fail "budgeted s-repair (max_steps=%d) inconsistent under %a" max_steps
        Fd_set.pp d;
    if r.degraded <> (r.fallbacks <> []) then
      fail "s-repair degraded flag disagrees with fallbacks under %a"
        Fd_set.pp d
  | Error e ->
    fail "budgeted s-repair refused to degrade: %s under %a"
      (R.Runtime.Repair_error.to_string e)
      Fd_set.pp d);
  if Table.size t * Schema.arity (Table.schema t) <= 12 then
    match
      R.Driver.u_repair_result ~budget:(budget ()) ~on_budget:`Degrade d t
    with
    | Ok r ->
      if not (Fd_set.satisfied_by d r.result) then
        fail "budgeted u-repair (max_steps=%d) inconsistent under %a"
          max_steps Fd_set.pp d;
      if r.degraded <> (r.fallbacks <> []) then
        fail "u-repair degraded flag disagrees with fallbacks under %a"
          Fd_set.pp d
    | Error e ->
      fail "budgeted u-repair refused to degrade: %s under %a"
        (R.Runtime.Repair_error.to_string e)
        Fd_set.pp d

(* --- protocol mode: request-parser and admission-engine fuzzing -----

   Every line a client can send — malformed, truncated, mutated,
   type-confused, oversized, or valid — must come back as exactly one
   structured reply line, the engine's books must stay balanced, and the
   engine must keep answering afterwards. Mirrors the server's line
   handling (size gate, then Engine.handle_line) without sockets. *)

module Protocol = R.Serve.Protocol
module Engine = R.Serve.Engine
module Json = R.Obs.Json

let random_op rng =
  Rng.pick rng
    [ Protocol.S_repair; Protocol.U_repair; Protocol.Classify; Protocol.Ping;
      Protocol.Metrics; Protocol.Stats; Protocol.Invalidate_cache ]

let valid_line rng =
  let op = random_op rng in
  Protocol.request_line
    ~id:(Json.String (Printf.sprintf "f%d" (Rng.int rng 1000)))
    ~op ~fds:"A -> B" ~table:"A,B\n1,2\n2,3\n"
    ?timeout_s:(if Rng.bool rng then Some 1.0 else None)
    ?max_steps:(if Rng.bool rng then Some (1 + Rng.int rng 100) else None)
    ()

let garbage_line rng =
  String.init (Rng.int rng 64) (fun _ ->
      (* any byte but the line terminator *)
      match Char.chr (Rng.int rng 256) with '\n' -> 'x' | c -> c)

let type_confused_line rng =
  Rng.pick rng
    [ {|{"op": 42}|};
      {|{"op": "s-repair", "fds": 42, "table": "A\n1\n"}|};
      {|{"op": "s-repair", "fds": "A -> B", "table": ["A"]}|};
      {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "timeout_s": "fast"}|};
      {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "max_steps": 0.5}|};
      {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "strategy": "psychic"}|};
      {|{"op": "s-repair", "fds": "A -> B", "table": "A\n1\n", "format": "xml"}|};
      {|{"op": "nonsense"}|};
      {|[1, 2, 3]|};
      {|"just a string"|};
      {|{}|};
      {|null|} ]

let fuzz_request_line rng =
  match Rng.int rng 6 with
  | 0 -> valid_line rng
  | 1 -> garbage_line rng
  | 2 ->
    let v = valid_line rng in
    String.sub v 0 (Rng.int rng (String.length v))
  | 3 ->
    let v = Bytes.of_string (valid_line rng) in
    if Bytes.length v > 0 then begin
      let i = Rng.int rng (Bytes.length v) in
      Bytes.set v i
        (match Char.chr (Rng.int rng 256) with '\n' -> '"' | c -> c)
    end;
    Bytes.to_string v
  | 4 -> type_confused_line rng
  | _ -> String.make (300 + Rng.int rng 200) 'a' (* oversized at 256 cap *)

let check_reply_line line =
  if line = "" || line.[String.length line - 1] <> '\n' then
    fail "reply is not newline-terminated: %S" line;
  if String.contains (String.sub line 0 (String.length line - 1)) '\n' then
    fail "reply spans multiple lines: %S" line;
  match Json.of_string line with
  | Error m -> fail "reply is not valid JSON (%s): %S" m line
  | Ok reply -> (
    match Json.member "ok" reply with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) -> (
      match
        Option.bind (Json.member "error" reply) (Json.member "class")
      with
      | Some (Json.String c) when c <> "" -> ()
      | _ -> fail "error reply without error.class: %S" line)
    | _ -> fail "reply lacks a boolean \"ok\" field: %S" line)

(* The poison executor: most requests succeed, some raise classified
   errors, some raise junk — the isolation boundary must classify all of
   them into replies rather than let anything unwind the server. *)
let stub_exec rng ~conn:_ ~degraded:_ (_ : Protocol.request) =
  match Rng.int rng 4 with
  | 0 -> R.Runtime.Repair_error.raise_error
           (Parse { source = "<fuzz>"; line = None; detail = "poison" })
  | 1 -> failwith "poison exception"
  | _ -> [ ("distance", Json.Float 0.0) ]

let protocol_trial seed =
  let rng = Rng.make seed in
  let config =
    {
      Engine.default_config with
      queue_capacity = 1 + Rng.int rng 8;
      max_request_bytes = 256;
      quota = (if Rng.bool rng then Some (1 + Rng.int rng 8) else None);
    }
  in
  let config =
    { config with
      degrade_watermark = 1 + Rng.int rng config.Engine.queue_capacity }
  in
  let engine = Engine.create config in
  for _ = 1 to 32 do
    let line = fuzz_request_line rng in
    (* the server's size gate, then the engine — total by construction *)
    (match
       if String.length line > config.Engine.max_request_bytes then
         `Reply (Engine.reject_oversized engine)
       else Engine.handle_line engine ~conn:0 ~quota_used:0 line
     with
    | `Reply reply | `Drain reply -> check_reply_line reply
    | `Enqueued -> ()
    | exception exn ->
      fail "engine raised on %S: %s" line (Printexc.to_string exn));
    (* opportunistically run some queued work mid-stream *)
    if Rng.bool rng then
      match Engine.take engine with
      | Some p ->
        check_reply_line (Engine.execute engine ~exec:(stub_exec rng) p)
      | None -> ()
  done;
  let rec drain_queue () =
    match Engine.take engine with
    | Some p ->
      check_reply_line (Engine.execute engine ~exec:(stub_exec rng) p);
      drain_queue ()
    | None -> ()
  in
  drain_queue ();
  if not (Engine.balanced engine) then
    fail "accounting identity violated after seed %d" seed;
  (* the server must still be alive and answering *)
  match
    Engine.handle_line engine ~conn:0 ~quota_used:0
      {|{"id": "live", "op": "ping"}|}
  with
  | `Reply reply ->
    check_reply_line reply;
    if not (String.length reply > 4 && Json.of_string reply <> Error "") then
      ()
  | _ -> fail "ping after fuzzing did not produce an immediate reply"

(* --- par mode: parallel vs sequential cross-check -------------------

   Same instance generators as differential mode, but the property is
   the DESIGN §13 contract: a driver run on a domain pool is
   bit-identical to the sequential run — result table, distance, method,
   degraded flag, fallbacks, and on the error path the error class.
   Budgeted runs ride along because a limited budget must take the
   sequential path unchanged. *)

let par_pool = lazy (R.Par.Pool.create ~domains:4)

let reports_agree what d (seq : (R.Driver.report, _) result)
    (par : (R.Driver.report, _) result) =
  match (seq, par) with
  | Ok s, Ok p ->
    if not (Table.equal s.R.Driver.result p.R.Driver.result) then
      fail "%s: parallel result table differs under %a" what Fd_set.pp d;
    if s.distance <> p.distance then
      fail "%s: parallel distance %g != sequential %g under %a" what
        p.distance s.distance Fd_set.pp d;
    if s.method_used <> p.method_used then
      fail "%s: parallel method %S != sequential %S under %a" what
        p.method_used s.method_used Fd_set.pp d;
    if s.degraded <> p.degraded || s.fallbacks <> p.fallbacks then
      fail "%s: parallel degradation trace differs under %a" what Fd_set.pp d
  | Error es, Error ep ->
    let cs = R.Runtime.Repair_error.class_name es
    and cp = R.Runtime.Repair_error.class_name ep in
    if cs <> cp then
      fail "%s: parallel error class %S != sequential %S under %a" what cp cs
        Fd_set.pp d
  | Ok _, Error e ->
    fail "%s: parallel run failed (%s) where sequential succeeded under %a"
      what (R.Runtime.Repair_error.class_name e) Fd_set.pp d
  | Error e, Ok _ ->
    fail "%s: parallel run succeeded where sequential failed (%s) under %a"
      what (R.Runtime.Repair_error.class_name e) Fd_set.pp d

let par_trial seed =
  let rng = Rng.make seed in
  let n_attrs = Rng.in_range rng 2 4 in
  let schema, d =
    Gen_fd.random rng ~n_attrs ~n_fds:(Rng.in_range rng 1 3) ~max_lhs:2
  in
  let t =
    Gen_table.dirty rng schema d
      {
        Gen_table.default with
        n = Rng.in_range rng 0 10;
        noise = 0.3;
        domain_size = 3;
        weighted = Rng.bool rng;
        duplicate_rate = 0.1;
      }
  in
  let pool = Lazy.force par_pool in
  reports_agree "s-repair" d
    (R.Driver.s_repair_result d t)
    (R.Driver.s_repair_result ~pool d t);
  reports_agree "u-repair" d
    (R.Driver.u_repair_result d t)
    (R.Driver.u_repair_result ~pool d t);
  (* Budgeted, both policies: limited budgets force the sequential path
     inside the pool run, so exhaustion points must be preserved. *)
  let max_steps = Rng.in_range rng 1 50 in
  List.iter
    (fun on_budget ->
      let budget () = R.Runtime.Budget.create ~max_steps () in
      reports_agree "budgeted s-repair" d
        (R.Driver.s_repair_result ~budget:(budget ()) ~on_budget d t)
        (R.Driver.s_repair_result ~pool ~budget:(budget ()) ~on_budget d t);
      reports_agree "budgeted u-repair" d
        (R.Driver.u_repair_result ~budget:(budget ()) ~on_budget d t)
        (R.Driver.u_repair_result ~pool ~budget:(budget ()) ~on_budget d t))
    [ `Degrade; `Fail ]

(* --- chaos mode: IO fault injection against the durability layer ----

   Every trial arms a randomized Io_fault plan and asserts the
   torn-world contract end to end. Even seeds hit the batch journal: a
   run under injected short writes / EINTR / ENOSPC / torn tails / bit
   flips either completes, dies with the simulated Crash, or raises a
   classified error; recovery then either truncates the torn tail or
   quarantines corruption to the sidecar with the structured Corruption
   class — never an unclassified exception; a faultless resume never
   re-executes a job whose terminal record survived; and the final
   journal matches the unfaulted reference run record for record
   (modulo the wall_ms telemetry field). Odd seeds hit the serving
   engine with an executor publishing through write_file_atomic while
   faults are armed: every reply must stay structured, the accounting
   identity must hold, and the engine must keep answering. *)

module Io_fault = R.Runtime.Io_fault
module Journal = R.Batch.Journal
module Manifest = R.Batch.Manifest
module Runner = R.Batch.Runner
module Rerr = R.Runtime.Repair_error

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let fresh_dir seed =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repair-chaos-%d-%d" (Unix.getpid ()) seed)
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  dir

(* Journal equality modulo wall_ms, the one nondeterministic field. *)
let scrub_entry = function
  | Journal.Commit c -> Journal.Commit { c with wall_ms = 0.0 }
  | e -> e

let journal_entries path =
  List.map scrub_entry (Journal.recover path).Journal.entries

let chaos_job id =
  {
    Manifest.id;
    input = id ^ ".csv";
    fds = "A -> B";
    kind = Manifest.S_repair;
    strategy = Manifest.Auto;
    timeout_s = None;
    max_steps = None;
    on_budget = `Degrade;
    output = None;
  }

let random_io_kind rng =
  match Rng.int rng 5 with
  | 0 -> Io_fault.Short_write
  | 1 -> Io_fault.Eintr
  | 2 -> Io_fault.Enospc
  | 3 -> Io_fault.Torn (Rng.int rng 48)
  | _ -> Io_fault.Bit_flip (Rng.int rng 2048)

let random_batch_plan rng =
  List.init
    (1 + Rng.int rng 2)
    (fun _ ->
      {
        Io_fault.op = (if Rng.bool rng then Io_fault.Write else Io_fault.Fsync);
        at = 1 + Rng.int rng 14;
        kind = random_io_kind rng;
      })

let batch_chaos seed =
  let rng = Rng.make seed in
  let dir = fresh_dir seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let n_jobs = 1 + Rng.int rng 4 in
  let ids =
    List.init n_jobs (fun i ->
        if Rng.int rng 8 = 0 then Printf.sprintf "poison%d" i
        else Printf.sprintf "job%d" i)
  in
  let manifest = { Manifest.jobs = List.map chaos_job ids } in
  let exec_log : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let exec (job : Manifest.job) =
    Hashtbl.replace exec_log job.Manifest.id
      (1 + Option.value (Hashtbl.find_opt exec_log job.Manifest.id) ~default:0);
    if String.length job.Manifest.id >= 6
       && String.sub job.Manifest.id 0 6 = "poison"
    then
      Rerr.raise_error
        (Parse { source = job.Manifest.id; line = None; detail = "poison job" });
    {
      Runner.status = `Ok;
      distance = float_of_int (String.length job.Manifest.id);
      method_used = "stub";
    }
  in
  let reference =
    let j = Filename.concat dir "reference.jsonl" in
    ignore (Runner.run ~exec ~journal:j manifest);
    journal_entries j
  in
  let journal = Filename.concat dir "batch.jsonl" in
  let plan = random_batch_plan rng in
  (match
     Io_fault.with_plan plan (fun () -> Runner.run ~exec ~journal manifest)
   with
  | (_ : Runner.summary) -> ()
  | exception Io_fault.Crash _ -> () (* simulated kill mid-write *)
  | exception Rerr.Error _ -> () (* classified IO failure *)
  | exception exn ->
    fail "chaos batch: unclassified escape under faults: %s"
      (Printexc.to_string exn));
  (* Recovery must classify what the faults left behind: a clean or torn
     journal recovers silently; corruption quarantines the damage and
     raises the structured class, after which the trusted prefix must
     recover cleanly. *)
  let recovered =
    match Journal.recover journal with
    | r -> r
    | exception Rerr.Error (Rerr.Corruption { file; _ }) -> (
      if not (Sys.file_exists (Journal.corrupt_sidecar file)) then
        fail "chaos batch: corruption raised without a quarantine sidecar";
      match Journal.recover journal with
      | r -> r
      | exception exn ->
        fail "chaos batch: trusted prefix failed to recover: %s"
          (Printexc.to_string exn))
    | exception exn ->
      fail "chaos batch: recovery raised unclassified: %s"
        (Printexc.to_string exn)
  in
  Hashtbl.reset exec_log;
  (match Runner.run ~resume:true ~exec ~journal manifest with
  | (_ : Runner.summary) -> ()
  | exception exn ->
    fail "chaos batch: faultless resume failed: %s" (Printexc.to_string exn));
  List.iter
    (fun (id, _) ->
      if Hashtbl.mem exec_log id then
        fail "chaos batch: job %s re-executed past its terminal record" id)
    recovered.Journal.committed;
  if journal_entries journal <> reference then
    fail "chaos batch: resumed journal diverged from the unfaulted run"

(* No Torn (= Crash) in serving plans: a crash is process death, not
   something the isolation boundary should absorb. Everything else must
   come back as a classified error reply. *)
let random_serve_plan rng =
  List.init
    (1 + Rng.int rng 3)
    (fun _ ->
      {
        Io_fault.op =
          Rng.pick rng [ Io_fault.Write; Io_fault.Fsync; Io_fault.Rename ];
        at = 1 + Rng.int rng 20;
        kind =
          (match Rng.int rng 3 with
          | 0 -> Io_fault.Short_write
          | 1 -> Io_fault.Eintr
          | _ -> Io_fault.Enospc);
      })

let serve_chaos seed =
  let rng = Rng.make seed in
  let dir = fresh_dir seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let out = Filename.concat dir "answer.json" in
  let config =
    {
      Engine.default_config with
      queue_capacity = 1 + Rng.int rng 8;
      max_request_bytes = 256;
    }
  in
  let config =
    { config with
      degrade_watermark = 1 + Rng.int rng config.Engine.queue_capacity }
  in
  let engine = Engine.create config in
  let exec ~conn:_ ~degraded:_ (_ : Protocol.request) =
    (* durably publish through the shim: injected faults must surface as
       classified Io errors the isolation boundary turns into replies *)
    Io_fault.write_file_atomic out
      (Printf.sprintf "{\"seq\": %d}\n" (Rng.int rng 1_000_000));
    [ ("distance", Json.Float 0.0) ]
  in
  Io_fault.with_plan (random_serve_plan rng) (fun () ->
      for _ = 1 to 24 do
        let line =
          if Rng.int rng 4 = 0 then fuzz_request_line rng else valid_line rng
        in
        (match
           if String.length line > config.Engine.max_request_bytes then
             `Reply (Engine.reject_oversized engine)
           else Engine.handle_line engine ~conn:0 ~quota_used:0 line
         with
        | `Reply reply | `Drain reply -> check_reply_line reply
        | `Enqueued -> ()
        | exception exn ->
          fail "chaos serve: engine raised on %S: %s" line
            (Printexc.to_string exn));
        if Rng.bool rng then
          match Engine.take engine with
          | Some p -> check_reply_line (Engine.execute engine ~exec p)
          | None -> ()
      done;
      let rec drain () =
        match Engine.take engine with
        | Some p ->
          check_reply_line (Engine.execute engine ~exec p);
          drain ()
        | None -> ()
      in
      drain ());
  if not (Engine.balanced engine) then
    fail "chaos serve: accounting identity violated (seed %d)" seed;
  match
    Engine.handle_line engine ~conn:0 ~quota_used:0
      {|{"id": "live", "op": "ping"}|}
  with
  | `Reply reply -> check_reply_line reply
  | _ -> fail "chaos serve: ping after fault sweep not answered inline"

let chaos_trial seed =
  if seed mod 2 = 0 then batch_chaos seed else serve_chaos seed

(* --- stream mode: incremental session vs cold recompute -------------

   DESIGN §16's identity contract, fuzzed: after EVERY delta on a random
   tape the session's summary must match a cold driver run on the
   materialized table — result table, distance, method, optimal flag,
   ratio, all compared exactly, no epsilon. A third of the trials start
   past S_exact.size_limit, so hard tapes also reach the approximation
   rung. *)

let stream_trial seed =
  let module Ss = R.Stream.Session in
  let rng = Rng.make seed in
  let n_attrs = Rng.in_range rng 2 3 in
  let schema, d =
    Gen_fd.random rng ~n_attrs ~n_fds:(Rng.in_range rng 1 2) ~max_lhs:2
  in
  let base =
    Gen_table.dirty rng schema d
      {
        Gen_table.default with
        n =
          (if Rng.int rng 3 = 0 then Rng.in_range rng 65 120
           else Rng.in_range rng 0 8);
        noise = 0.4;
        domain_size = 3;
        weighted = Rng.bool rng;
        duplicate_rate = 0.1;
      }
  in
  let session = Ss.create d base in
  let next_id = ref (List.fold_left max (-1) (Table.ids base) + 1) in
  let live = ref (Table.ids base) in
  for _ = 1 to Rng.in_range rng 1 12 do
    (if !live <> [] && Rng.int rng 3 = 0 then begin
       let id = List.nth !live (Rng.int rng (List.length !live)) in
       live := List.filter (fun i -> i <> id) !live;
       Ss.tick session (R.Stream.Delta.Delete { id })
     end
     else begin
       let values = List.init n_attrs (fun _ -> Value.int (Rng.int rng 3)) in
       let weight =
         if Rng.bool rng then 1.0 else float_of_int (Rng.in_range rng 1 5)
       in
       let id = !next_id in
       incr next_id;
       live := id :: !live;
       Ss.tick session (R.Stream.Delta.Insert { id = Some id; weight; values })
     end);
    let m = Ss.materialized session in
    let s = Ss.summary session in
    match R.Driver.s_repair_result d m with
    | Error e ->
      fail "cold driver failed on materialized table: %s under %a"
        (R.Runtime.Repair_error.to_string e)
        Fd_set.pp d
    | Ok cold ->
      if not (Table.equal s.Ss.result cold.R.Driver.result) then
        fail "stream result table differs from cold recompute under %a"
          Fd_set.pp d;
      if s.Ss.distance <> cold.distance then
        fail "stream distance %g != cold %g under %a" s.Ss.distance
          cold.distance Fd_set.pp d;
      if s.Ss.method_used <> cold.method_used then
        fail "stream method %S != cold %S under %a" s.Ss.method_used
          cold.method_used Fd_set.pp d;
      if s.Ss.optimal <> cold.optimal || s.Ss.ratio <> cold.ratio then
        fail "stream optimality certificate differs from cold under %a"
          Fd_set.pp d
  done

let trial seed =
  let rng = Rng.make seed in
  let n_attrs = Rng.in_range rng 2 4 in
  let schema, d =
    Gen_fd.random rng ~n_attrs ~n_fds:(Rng.in_range rng 1 3) ~max_lhs:2
  in
  let t =
    Gen_table.dirty rng schema d
      {
        Gen_table.default with
        n = Rng.in_range rng 0 10;
        noise = 0.3;
        domain_size = 3;
        weighted = Rng.bool rng;
        duplicate_rate = 0.1;
      }
  in
  check_s_repair d t;
  check_approx d t;
  check_u_repair d t;
  check_u_approx d t;
  check_enumeration d t;
  check_mpd d t;
  check_budgeted rng d t

let run mode trials seed0 quiet =
  let trial =
    match mode with
    | `Differential -> trial
    | `Protocol -> protocol_trial
    | `Par -> par_trial
    | `Chaos -> chaos_trial
    | `Stream -> stream_trial
  in
  let failures = ref 0 in
  (try
     for i = 0 to trials - 1 do
       let seed = seed0 + i in
       (try trial seed
        with Found msg ->
          incr failures;
          Fmt.epr "FAIL seed %d: %s@." seed msg);
       if (not quiet) && (i + 1) mod 500 = 0 then
         Fmt.epr "… %d/%d trials@." (i + 1) trials
     done
   with exn ->
     Fmt.epr "fuzzer crashed: %s@." (Printexc.to_string exn);
     exit 2);
  if !failures = 0 then begin
    Fmt.pr "repair-fuzz: %d trials, all checks passed@." trials;
    exit 0
  end
  else begin
    Fmt.pr "repair-fuzz: %d/%d trials failed@." !failures trials;
    exit 1
  end

let main =
  let mode =
    let doc =
      "What to fuzz: $(b,differential) cross-checks polynomial algorithms \
       against exponential baselines; $(b,protocol) throws malformed, \
       truncated, mutated, and oversized request lines at the serving \
       engine and checks every one yields a structured reply, the \
       accounting identity holds, and the engine keeps answering; \
       $(b,par) cross-checks driver runs on a 4-domain pool against \
       sequential runs, asserting bit-identical reports and preserved \
       error classes (DESIGN §13); $(b,chaos) arms randomized IO fault \
       plans (short writes, EINTR, ENOSPC, torn tails, bit flips) \
       against the batch journal and the serving engine, asserting \
       recovery truncates torn tails, quarantines corruption with the \
       structured error class, never re-executes a committed job, and \
       keeps the serve accounting identity balanced (DESIGN §14); \
       $(b,stream) replays random delta tapes through an incremental \
       streaming session, asserting after every tick that the summary is \
       identical to a cold driver run on the materialized table, and \
       that the maintained vertex-cover store matches the batch greedy \
       (DESIGN §16)."
    in
    Arg.(value
         & opt
             (enum
                [ ("differential", `Differential); ("protocol", `Protocol);
                  ("par", `Par); ("chaos", `Chaos); ("stream", `Stream) ])
             `Differential
         & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let trials =
    Arg.(value & opt int 1_000 & info [ "t"; "trials" ] ~doc:"Number of trials.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"First seed (trials use seed, seed+1, ...).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.") in
  let doc = "differential fuzzer for the repair algorithms" in
  Cmd.v (Cmd.info "repair-fuzz" ~doc) Term.(const run $ mode $ trials $ seed $ quiet)

let () = exit (Cmd.eval main)
