(* Shared benchmark plumbing: section banners, aligned tables, a thin
   wrapper over Bechamel's OLS pipeline returning ns/run per test, and the
   machine-readable record sink behind BENCH_*.json. *)

module Json = Repair_core.Repair.Obs.Json
module Metrics = Repair_core.Repair.Obs.Metrics

(* Float comparisons in experiment checks go through an epsilon, never
   (=): distances are sums of float weights and the experiments must not
   depend on association order. *)
let approx_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let section id title =
  Fmt.pr "@.%s@.%s  %s@.%s@." (String.make 78 '=') id title
    (String.make 78 '=')

let subsection title = Fmt.pr "@.--- %s@." title

let row fmt = Fmt.pr fmt

(* ---------- machine-readable benchmark records ---------- *)

let current_experiment = ref "startup"

let records : Json.t list ref = ref []

(* [record ~solver ~wall_ms] appends one structured measurement under the
   experiment currently running; [n]/[noise] describe the instance when
   the caller has one. *)
let record ?(n = 0) ?(noise = 0.0) ?(counters = []) ~solver ~wall_ms () =
  records :=
    Json.Obj
      [ ("name", Json.String (!current_experiment ^ "/" ^ solver));
        ("experiment", Json.String !current_experiment);
        ("solver", Json.String solver);
        ("n", Json.Int n);
        ("noise", Json.Float noise);
        ("wall_ms", Json.Float wall_ms);
        ("counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)) ]
    :: !records

(* Median-of-N runs: with [set_runs n], every experiment body is executed
   [n] times and each emitted record keeps the median wall_ms across the
   repetitions (all other fields come from the first run). This makes the
   compare.ml regression gate far less sensitive to scheduler noise. *)
let runs = ref 1

let set_runs n =
  if n < 1 then invalid_arg "Bench_util.set_runs: need at least one run";
  runs := n

let median xs =
  let sorted = List.sort compare xs in
  let len = List.length sorted in
  let lo = List.nth sorted ((len - 1) / 2) and hi = List.nth sorted (len / 2) in
  (lo +. hi) /. 2.0

let field_of json key =
  match json with
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let with_wall_ms json v =
  match json with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, x) -> if k = "wall_ms" then (k, Json.Float v) else (k, x))
         fields)
  | other -> other

(* Records within one repetition are matched across repetitions by
   (name, occurrence index): experiments emit records in a deterministic
   order, and a name may legitimately recur (e.g. one record per sweep
   point under the same solver label). *)
let occurrence_keys recs =
  let seen = Hashtbl.create 16 in
  List.map
    (fun r ->
      let name =
        match field_of r "name" with Some (Json.String s) -> s | _ -> ""
      in
      let k = try Hashtbl.find seen name with Not_found -> 0 in
      Hashtbl.replace seen name (k + 1);
      (name, k))
    recs

(* Run one experiment with a fresh metrics registry; its wall-clock time
   and accumulated counters become the "<name>/harness" record. *)
let run_experiment name f =
  current_experiment := name;
  let outer = !records in
  let one () =
    records := [];
    Metrics.reset ();
    Metrics.enable ();
    let t0 = Unix.gettimeofday () in
    f ();
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    record ~counters:(Metrics.counters ()) ~solver:"harness" ~wall_ms ();
    List.rev !records (* chronological *)
  in
  let first = one () in
  let merged =
    if !runs = 1 then first
    else begin
      let walls = Hashtbl.create 64 in
      let stash recs =
        List.iter2
          (fun key r ->
            match field_of r "wall_ms" with
            | Some (Json.Float w) ->
              Hashtbl.replace walls key
                (w :: (try Hashtbl.find walls key with Not_found -> []))
            | _ -> ())
          (occurrence_keys recs) recs
      in
      stash first;
      for _ = 2 to !runs do
        stash (one ())
      done;
      List.map2
        (fun key r ->
          match Hashtbl.find_opt walls key with
          | Some ws -> with_wall_ms r (median ws)
          | None -> r)
        (occurrence_keys first) first
    end
  in
  records := List.rev_append merged outer

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* The header names the host as well as the commit: [cores] and the
   OCaml version, since timings from different machines do not compare. *)
let write_bench ~file () =
  let doc =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("git", Json.String (git_describe ()));
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("recorded_at_unix", Json.Float (Unix.gettimeofday ()));
        ("records", Json.List (List.rev !records)) ]
  in
  Repair_core.Repair.Runtime.Io_fault.write_file_atomic file
    (Json.to_string ~pretty:true doc ^ "\n");
  Fmt.pr "@.%d benchmark records → %s@." (List.length !records) file

(* Run a list of (label, thunk) under Bechamel; returns (label, ns/run). *)
let time_tests ?(quota = 0.3) ~name tests =
  let open Bechamel in
  let tests' =
    List.map (fun (n, f) -> Test.make ~name:n (Staged.stage f)) tests
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests' in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let measured =
    List.filter_map
      (fun (label, _) ->
        let key = name ^ "/" ^ label in
        match Hashtbl.find_opt results key with
        | None -> None
        | Some r -> (
          match Analyze.OLS.estimates r with
          | Some (ns :: _) -> Some (label, ns)
          | _ -> None))
      tests
  in
  List.iter
    (fun (label, ns) ->
      record ~solver:(name ^ "/" ^ label) ~wall_ms:(ns /. 1e6) ())
    measured;
  measured

let pp_ns ppf ns =
  if ns >= 1e9 then Fmt.pf ppf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.pf ppf "%.2f µs" (ns /. 1e3)
  else Fmt.pf ppf "%.0f ns" ns

let failures = ref 0

let check label ok =
  if not ok then incr failures;
  Fmt.pr "  [%s] %s@." (if ok then "OK " else "BAD") label

(* Called once at the end of the harness: nonzero exit on any BAD check so
   the bench doubles as a reproduction gate in CI. *)
let finish () =
  if !failures = 0 then Fmt.pr "@.All experiments completed.@."
  else begin
    Fmt.pr "@.%d experiment check(s) FAILED.@." !failures;
    exit 1
  end

(* Aggregates over per-seed measurements. *)
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let maximum xs = List.fold_left max neg_infinity xs
