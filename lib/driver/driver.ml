open Repair_relational
open Repair_fd
module Budget = Repair_runtime.Budget
module Repair_error = Repair_runtime.Repair_error
module Pool = Repair_par.Pool

let src = Logs.Src.create "repair.driver" ~doc:"algorithm selection"

module Log = (val Logs.src_log src : Logs.LOG)

type strategy = Auto | Poly | Exact | Approximate

let strategies =
  [ ("auto", Auto); ("poly", Poly); ("exact", Exact); ("approx", Approximate) ]

type on_budget = [ `Fail | `Degrade ]

type report = {
  result : Table.t;
  distance : float;
  optimal : bool;
  ratio : float;
  method_used : string;
  degraded : bool;
  fallbacks : string list;
}

let parse_fds ~source text =
  try Fd_set.parse text
  with Failure detail ->
    Repair_error.raise_error (Parse { source; line = None; detail })

(* [per_row] bounds what one row adds to a repair's distance: 1 for a
   deleted row, the arity for a row whose every cell changed. *)
let check_input ~per_row d tbl =
  let source = "<table>" and schema = Table.schema tbl in
  Attr_set.iter
    (fun a ->
      if not (Schema.mem schema a) then
        let detail = Fmt.str "the FD set names %s, which is not a column" a in
        Repair_error.raise_error (Schema_mismatch { source; detail }))
    (Fd_set.attrs d);
  if not (Float.is_finite (Table.total_weight tbl *. float_of_int per_row))
  then
    let detail = "the weights sum past max_float: repair distances overflow" in
    Repair_error.raise_error (Parse { source; line = None; detail })

let validate d tbl = check_input ~per_row:1 d tbl

let s_poly_name = Repair_srepair.Opt_s_repair.method_name

let s_exact_name = Repair_srepair.S_exact.method_name

let s_approx_name = Repair_srepair.S_approx.method_name

let u_poly_name = "tractable-case solver (Section 4)"

let u_exact_name = "bounded exhaustive search (baseline)"

let u_approx_name =
  "combined per-component approximation (Theorems 4.1/4.3/4.12)"

(* One rung of the degradation ladder: run [f]; when it dies of a
   degradable error (budget exhausted, size gate, injected fault) and the
   policy allows, run the certified fallback instead and record the edge.
   The fallback is polynomial and runs unbudgeted — the engine always
   returns a consistent repair under `Degrade. *)
let rung ~on_budget ~degraded ~fallbacks ~name ~fallback:(alt_name, alt) f =
  try f () with
  | Repair_error.Error e
    when on_budget = `Degrade && Repair_error.is_degradable e ->
    degraded := true;
    fallbacks :=
      Fmt.str "%s failed (%s) → %s" name (Repair_error.class_name e) alt_name
      :: !fallbacks;
    Log.info (fun m ->
        m "degrading: %s — %a; falling back to %s" name Repair_error.pp e
          alt_name);
    alt ()

let s_report tbl result ~optimal ~ratio ~method_used =
  {
    result;
    distance = Table.dist_sub result tbl;
    optimal;
    ratio;
    method_used;
    degraded = false;
    fallbacks = [];
  }

let s_repair_result ?pool ?(strategy = Auto) ?(budget = Budget.unlimited ())
    ?(on_budget = `Degrade) d tbl =
  let degraded = ref false and fallbacks = ref [] in
  let runner = Option.map Pool.runner pool in
  let poly () =
    match Repair_srepair.Opt_s_repair.run ~budget ?runner d tbl with
    | Ok s -> s_report tbl s ~optimal:true ~ratio:1.0 ~method_used:s_poly_name
    | Error stuck ->
      Repair_error.raise_error
        (Intractable
           {
             what = "OptSRepair";
             detail =
               Fmt.str "no simplification applies to %a" Fd_set.pp stuck;
           })
  in
  let exact () =
    (* S_exact.optimal itself has no size gate (tests and the reduction
       gadgets call it on larger graphs on purpose), so the rung gates
       it, as Auto does. *)
    let limit = Repair_srepair.S_exact.size_limit in
    if Table.size tbl > limit then
      Repair_error.raise_error
        (Size_limit
           { what = "S_exact.optimal"; limit; actual = Table.size tbl });
    s_report tbl
      (Repair_srepair.S_exact.optimal ~budget d tbl)
      ~optimal:true ~ratio:1.0 ~method_used:s_exact_name
  in
  let approx () =
    let s = Repair_srepair.S_approx.approx2 ?runner d tbl in
    s_report tbl s ~optimal:false ~ratio:2.0 ~method_used:s_approx_name
  in
  let rung name f =
    rung ~on_budget ~degraded ~fallbacks ~name
      ~fallback:(s_approx_name, approx) f
  in
  Repair_error.guard (fun () ->
      validate d tbl;
      let r =
        match strategy with
        | Poly -> rung s_poly_name poly
        | Exact -> rung s_exact_name exact
        | Approximate -> approx ()
        | Auto ->
          if Repair_dichotomy.Simplify.succeeds d then begin
            Log.debug (fun m -> m "s-repair: OSRSucceeds — Algorithm 1");
            rung s_poly_name poly
          end
          else if Table.size tbl <= Repair_srepair.S_exact.size_limit
          then begin
            Log.debug (fun m ->
                m "s-repair: hard Δ, n=%d small — exact baseline"
                  (Table.size tbl));
            rung s_exact_name exact
          end
          else begin
            Log.debug (fun m ->
                m "s-repair: hard Δ at scale — 2-approximation");
            approx ()
          end
      in
      { r with degraded = !degraded; fallbacks = List.rev !fallbacks })

let raise_report = function
  | Ok r -> r
  | Error e -> Repair_error.raise_error e

let s_repair ?pool ?strategy ?budget ?on_budget d tbl =
  raise_report (s_repair_result ?pool ?strategy ?budget ?on_budget d tbl)

let u_report tbl result ~optimal ~ratio ~method_used =
  {
    result;
    distance = Table.dist_upd result tbl;
    optimal;
    ratio;
    method_used;
    degraded = false;
    fallbacks = [];
  }

let u_repair_result ?pool ?(strategy = Auto) ?(budget = Budget.unlimited ())
    ?(on_budget = `Degrade) d tbl =
  let degraded = ref false and fallbacks = ref [] in
  let runner = Option.map Pool.runner pool in
  let poly () =
    match Repair_urepair.Opt_u_repair.solve ~budget ?runner d tbl with
    | Ok u -> u_report tbl u ~optimal:true ~ratio:1.0 ~method_used:u_poly_name
    | Error f ->
      Repair_error.raise_error
        (Intractable
           {
             what = "Opt_u_repair";
             detail = Fmt.str "%a" Repair_urepair.Opt_u_repair.pp_failure f;
           })
  in
  let exact () =
    u_report tbl
      (Repair_urepair.U_exact.optimal ~budget d tbl)
      ~optimal:true ~ratio:1.0 ~method_used:u_exact_name
  in
  let approx () =
    let u, ratio = Repair_urepair.U_approx.best d tbl in
    u_report tbl u ~optimal:(ratio = 1.0) ~ratio ~method_used:u_approx_name
  in
  let rung name f =
    rung ~on_budget ~degraded ~fallbacks ~name
      ~fallback:(u_approx_name, approx) f
  in
  Repair_error.guard (fun () ->
      check_input ~per_row:(Schema.arity (Table.schema tbl)) d tbl;
      let r =
        match strategy with
        | Poly -> rung u_poly_name poly
        | Exact -> rung u_exact_name exact
        | Approximate -> approx ()
        | Auto ->
          if Repair_urepair.Opt_u_repair.tractable d then begin
            Log.debug (fun m -> m "u-repair: Section-4 tractable case");
            rung u_poly_name poly
          end
          else if
            Table.size tbl * Schema.arity (Table.schema tbl) <= 18
          then begin
            Log.debug (fun m ->
                m "u-repair: exhaustive search on tiny instance");
            rung u_exact_name exact
          end
          else begin
            Log.debug (fun m ->
                m "u-repair: certified combined approximation");
            approx ()
          end
      in
      { r with degraded = !degraded; fallbacks = List.rev !fallbacks })

let u_repair ?pool ?strategy ?budget ?on_budget d tbl =
  raise_report (u_repair_result ?pool ?strategy ?budget ?on_budget d tbl)

let s_repair_database ?strategy ?budget ?on_budget constraints db =
  let total = ref 0.0 in
  let repaired =
    Database.map db (fun name tbl ->
        match List.assoc_opt name constraints with
        | None -> tbl
        | Some d ->
          let r = s_repair ?strategy ?budget ?on_budget d tbl in
          total := !total +. r.distance;
          r.result)
  in
  (repaired, !total)

let describe d =
  let module Simplify = Repair_dichotomy.Simplify in
  let module Classify = Repair_dichotomy.Classify in
  let buf = Buffer.create 256 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "Δ = %a@." Fd_set.pp d;
  (match Classify.classify d with
  | `Tractable trace ->
    Fmt.pf ppf
      "Optimal S-repair: polynomial time (OSRSucceeds holds).@.%a@."
      Simplify.pp_trace (d, trace)
  | `Hard (stuck, trace, cert) ->
    Fmt.pf ppf
      "Optimal S-repair: APX-complete (OSRSucceeds fails).@.%a@.Stuck \
       set: %a@.Certificate: %a@."
      Simplify.pp_trace (d, trace) Fd_set.pp stuck Classify.pp_certificate
      cert);
  (match Repair_urepair.Opt_u_repair.diagnose d with
  | None ->
    Fmt.pf ppf "Optimal U-repair: polynomial time (Section 4 cases).@."
  | Some f ->
    Fmt.pf ppf "Optimal U-repair: not known tractable — %a@."
      Repair_urepair.Opt_u_repair.pp_failure f);
  let d' = Fd_set.normalize d in
  if not (Fd_set.is_empty d') then begin
    Fmt.pf ppf
      "U-repair approximation ratios: ours (Thm 4.12, per-component) = \
       %g; Kolahi–Lakshmanan (Thm 4.13) = %d (MFS=%d, MCI=%d).@."
      (Repair_urepair.U_approx.certified_ratio d)
      (Lhs_analysis.kl_ratio d') (Lhs_analysis.mfs d')
      (Lhs_analysis.mci d')
  end;
  Fmt.flush ppf ();
  Buffer.contents buf
