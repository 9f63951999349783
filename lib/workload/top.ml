module Json = Repair_obs.Json
module Histogram = Repair_obs.Histogram

type sample = {
  stats : Json.t;
  totals : (string * int) list;
  serve : Json.t;
  exposition : string;
}

(* The members of object [key] of [j] that [f] converts. *)
let members f key j =
  match Json.member key j with
  | Some (Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (f v)) kvs
  | _ -> []

(* Blocking one-shot client: the operator view has no pipelining needs,
   so a plain connect / write line / read line keeps the failure modes
   obvious. *)
let fetch listen =
  match
    let w = Wire.connect listen in
    Fun.protect
      ~finally:(fun () -> Wire.close w)
      (fun () ->
        Wire.send w "{\"id\": \"top\", \"op\": \"stats\"}\n";
        Wire.read_line w)
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "top: cannot reach server: %s" (Unix.error_message e))
  | None -> Error "top: server closed the connection without a reply"
  | Some line -> (
    match Json.of_string line with
    | Error e -> Error (Printf.sprintf "top: unparsable stats reply: %s" e)
    | Ok reply -> (
      match Json.member "ok" reply with
      | Some (Json.Bool true) ->
        let obj k = Option.value ~default:(Json.Obj []) (Json.member k reply) in
        let totals = members Json.int_value "totals" reply in
        let exposition =
          Option.bind (Json.member "exposition" reply) Json.string_value
          |> Option.value ~default:""
        in
        Ok { stats = obj "stats"; totals; serve = obj "serve"; exposition }
      | _ ->
        Error
          (Printf.sprintf "top: server refused the stats op: %s"
             (String.trim line))))

let exposition s = s.exposition

(* {2 Pulling fields out of the stats object} *)

let float_member k j =
  Option.bind (Json.member k j) Json.float_value |> Option.value ~default:0.0

let rates s = members Json.float_value "rates" s.stats
let gauges s = members Json.float_value "gauges" s.stats

(* Rolling per-histogram tails, rebuilt from the summary JSON so the
   quantile estimator is the library's own. *)
let rolling s =
  members
    (fun v -> Result.to_option (Histogram.of_summary_json v))
    "rolling" s.stats

let n_windows s =
  match Json.member "windows" s.stats with
  | Some (Json.List ws) -> List.length ws
  | _ -> 0

let span_s s = float_member "span_s" s.stats

(* {2 Streaming-repair derivations}

   The stream row condenses the [stream.*] counters: tick throughput
   from the windowed rate, the affected-block ratio (dirty blocks
   re-solved per live block scanned — the locality the incremental
   engine is selling), and the block-cache hit rate. All three are
   hidden until the daemon has actually ticked a stream session. *)

let total k s = match List.assoc_opt k s.totals with Some n -> n | None -> 0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

type stream_row = {
  ticks : int;
  ticks_per_s : float;
  affected_ratio : float;  (** dirty blocks / live blocks, cumulative *)
  cache_hit_rate : float;  (** block-cache hits / (hits + misses) *)
}

let stream s =
  match total "stream.ticks" s with
  | 0 -> None
  | ticks ->
    let hits = total "stream.block-cache.hit" s in
    Some
      {
        ticks;
        ticks_per_s =
          (match List.assoc_opt "stream.ticks" (rates s) with
          | Some r -> r
          | None -> 0.0);
        affected_ratio =
          ratio (total "stream.dirty-blocks" s) (total "stream.blocks" s);
        cache_hit_rate =
          ratio hits (hits + total "stream.block-cache.miss" s);
      }

let serve_str k s =
  match Option.bind (Json.member k s.serve) Json.string_value with
  | Some v -> v
  | None -> "?"

let serve_int k s =
  match Option.bind (Json.member k s.serve) Json.int_value with
  | Some v -> v
  | None -> 0

(* {2 Rendering} *)

(* One stable [key value] pair per line, keys sorted within each group —
   the [--once] contract scripts grep against. *)
let pp_machine ppf s =
  let kv fmt = Format.fprintf ppf fmt in
  kv "windows %d@." (n_windows s);
  kv "span_s %.3f@." (span_s s);
  kv "mode %s@." (serve_str "mode" s);
  kv "queue_depth %d@." (serve_int "queue_depth" s);
  List.iter (fun (k, v) -> kv "gauge.%s %g@." k v) (gauges s);
  List.iter (fun (k, v) -> kv "rate.%s %g@." k v) (rates s);
  List.iter
    (fun (k, h) ->
      kv "p50.%s_ms %.3f@." k (Histogram.quantile h 0.5 *. 1000.0);
      kv "p99.%s_ms %.3f@." k (Histogram.quantile h 0.99 *. 1000.0);
      kv "rolling_count.%s %d@." k (Histogram.count h))
    (rolling s);
  (match stream s with
  | None -> ()
  | Some r ->
    kv "stream.ticks_per_s %g@." r.ticks_per_s;
    kv "stream.affected_ratio %g@." r.affected_ratio;
    kv "stream.cache_hit_rate %g@." r.cache_hit_rate);
  List.iter (fun (k, v) -> kv "total.%s %d@." k v) s.totals

let pp_dashboard ppf s =
  let pf fmt = Format.fprintf ppf fmt in
  pf "repair-serve  mode %s  queue %d (max %d)  completed %d  shed %d@."
    (serve_str "mode" s)
    (serve_int "queue_depth" s)
    (serve_int "queue_depth_max" s)
    (serve_int "completed" s) (serve_int "shed" s);
  pf "rolling window: %d samples spanning %.1fs@." (n_windows s) (span_s s);
  (match gauges s with
  | [] -> ()
  | gs ->
    pf "@.GAUGES@.";
    List.iter (fun (k, v) -> pf "  %-28s %10g@." k v) gs);
  (match rates s with
  | [] -> pf "@.RATES: no closed windows yet@."
  | rs ->
    pf "@.RATES (per second)@.";
    List.iter (fun (k, v) -> pf "  %-28s %10.2f@." k v) rs);
  (match rolling s with
  | [] -> ()
  | hs ->
    pf "@.TAILS (rolling, ms)      %10s %10s %10s %8s@." "p50" "p90" "p99"
      "count";
    List.iter
      (fun (k, h) ->
        let q p = Histogram.quantile h p *. 1000.0 in
        pf "  %-22s %10.3f %10.3f %10.3f %8d@." k (q 0.5) (q 0.9) (q 0.99)
          (Histogram.count h))
      hs);
  (match stream s with
  | None -> ()
  | Some r ->
    pf "@.STREAM@.";
    pf "  %-28s %10d@." "ticks" r.ticks;
    pf "  %-28s %10.2f@." "ticks/s" r.ticks_per_s;
    pf "  %-28s %10.2f%%@." "affected blocks" (100.0 *. r.affected_ratio);
    pf "  %-28s %10.2f%%@." "block-cache hits" (100.0 *. r.cache_hit_rate));
  (match s.totals with
  | [] -> ()
  | ts ->
    pf "@.TOTALS (since boot)@.";
    List.iter (fun (k, v) -> pf "  %-28s %10d@." k v) ts)
