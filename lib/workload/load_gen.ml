module Line_reader = Repair_serve.Line_reader
module Protocol = Repair_serve.Protocol
module Json = Repair_obs.Json
module Histogram = Repair_obs.Histogram
module Timeseries = Repair_obs.Timeseries
open Repair_relational
open Repair_fd

type spec = {
  requests : int;
  connections : int;
  op : Protocol.op;
  n_rows : int;
  n_attrs : int;
  n_fds : int;
  noise : float;
  distinct_fd_sets : int;
  poison_every : int option;
  malformed_every : int option;
  timeout_s : float option;
  strategy : Repair_driver.Driver.strategy option;
  wall_timeout_s : float;
  seed : int;
  retries : int;
  retry_backoff_ms : int;
}

let default_spec =
  {
    requests = 50;
    connections = 4;
    op = Protocol.S_repair;
    n_rows = 30;
    n_attrs = 4;
    n_fds = 2;
    noise = 0.1;
    distinct_fd_sets = 4;
    poison_every = None;
    malformed_every = None;
    timeout_s = Some 5.0;
    strategy = None;
    wall_timeout_s = 60.0;
    seed = 7;
    retries = 0;
    retry_backoff_ms = 50;
  }

type report = {
  sent : int;
  answered : int;
  ok : int;
  degraded : int;
  shed : int;
  failed : int;
  protocol_errors : int;
  unanswered : int;
  retried : int;
  wall_s : float;
  latency : Histogram.t;
  rolling : Json.t;
}

(* One outbound line: [id] is the correlation key for latency ([None]
   for deliberately malformed lines, whose replies carry a null id). *)
type line = { text : string; id : string option }

type conn = {
  wire : Wire.t;
  mutable outbox : line list;  (** head is in flight *)
  mutable out_off : int;  (** bytes of the head already written *)
  mutable alive : bool;
}

(* Render in the exact grammar [Fd_set.parse] accepts ([Fd_set.pp] adds
   set braces that the parser would read as attribute names). *)
let fd_render d =
  Fd_set.to_list d
  |> List.map (fun fd ->
         String.concat " " (Attr_set.to_list (Fd.lhs fd))
         ^ " -> "
         ^ String.concat " " (Attr_set.to_list (Fd.rhs fd)))
  |> String.concat "; "

let make_corpus spec =
  let rng = Rng.make spec.seed in
  let schemas =
    List.init (max 1 spec.distinct_fd_sets) (fun _ ->
        Gen_fd.random rng ~n_attrs:spec.n_attrs ~n_fds:spec.n_fds ~max_lhs:2)
  in
  let tspec =
    {
      Gen_table.default with
      n = spec.n_rows;
      noise = spec.noise;
      domain_size = max 4 (spec.n_rows / 4);
    }
  in
  let every k i = match k with Some k when k > 0 -> (i + 1) mod k = 0 | _ -> false in
  List.init spec.requests (fun i ->
      let id = Printf.sprintf "r%d" i in
      let jid = Json.String id in
      if every spec.poison_every i then
        (* Well-formed envelope, unparsable payload: must come back as a
           classified error while the server keeps serving. *)
        {
          text =
            Protocol.request_line ~id:jid ~op:spec.op
              ~fds:"this is not a functional dependency" ~table:"A\n1\n" ();
          id = Some id;
        }
      else
        let schema, d = List.nth schemas (i mod List.length schemas) in
        let table =
          match spec.op with
          | Protocol.Classify -> None
          | _ ->
            Some (Csv_io.to_string (Gen_table.dirty rng schema d tspec))
        in
        {
          text =
            Protocol.request_line ~id:jid ~op:spec.op ~fds:(fd_render d)
              ?table ?timeout_s:spec.timeout_s ?strategy:spec.strategy ();
          id = Some id;
        })

let malformed_lines spec n_requests =
  match spec.malformed_every with
  | Some k when k > 0 ->
    List.init (n_requests / k) (fun i ->
        let text =
          match i mod 3 with
          | 0 -> "this is not json\n"
          | 1 -> "{\"op\": \"s-repair\", \"fds\": 42}\n"
          | _ -> "{\"truncated\": \n"
        in
        { text; id = None })
  | _ -> []

(* Interleave malformed lines evenly through the request stream. *)
let interleave requests malformed =
  match malformed with
  | [] -> requests
  | _ ->
    let n = List.length requests and m = List.length malformed in
    let stride = max 1 (n / (m + 1)) in
    let rec weave i reqs mals acc =
      match (reqs, mals) with
      | [], rest -> List.rev_append acc rest
      | rest, [] -> List.rev_append acc rest
      | r :: rs, m :: ms ->
        if i > 0 && i mod stride = 0 then weave (i + 1) reqs ms (m :: acc)
        else weave (i + 1) rs mals (r :: acc)
    in
    weave 1 requests malformed []

let connect listen =
  let wire =
    try Wire.connect listen
    with Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "load_gen: cannot connect: %s" (Unix.error_message e))
  in
  Unix.set_nonblock (Line_reader.fd wire);
  { wire; outbox = []; out_off = 0; alive = true }

let classify_reply reply =
  let ok =
    match Json.member "ok" reply with Some (Json.Bool b) -> b | _ -> false
  in
  if ok then
    let degraded =
      match Json.member "degraded" reply with
      | Some (Json.Bool b) -> b
      | _ -> false
    in
    `Ok degraded
  else
    match
      Option.bind (Json.member "error" reply) (Json.member "class")
    with
    | Some (Json.String c)
      when c = Protocol.err_overloaded || c = Protocol.err_quota
           || c = Protocol.err_draining ->
      `Shed
    | Some (Json.String c)
      when c = Protocol.err_protocol || c = Protocol.err_oversized ->
      `Protocol
    | _ -> `Failed

let run spec listen =
  if spec.requests < 1 then invalid_arg "Load_gen.run: requests must be >= 1";
  if spec.connections < 1 then
    invalid_arg "Load_gen.run: connections must be >= 1";
  let lines = interleave (make_corpus spec) (malformed_lines spec spec.requests) in
  let conns = Array.init spec.connections (fun _ -> connect listen) in
  (* Round-robin the burst across connections up front; the select loop
     below just flushes outboxes and drains inboxes. *)
  List.iteri
    (fun i line ->
      let c = conns.(i mod spec.connections) in
      c.outbox <- c.outbox @ [ line ])
    lines;
  let sent_at : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let latency = Histogram.create () in
  let sent = ref 0
  and answered = ref 0
  and ok = ref 0
  and degraded = ref 0
  and shed = ref 0
  and failed = ref 0
  and retried = ref 0
  and protocol_errors = ref 0 in
  (* Client-side rolling tails: the same {!Timeseries} machinery the
     server's [stats] op uses, pointed at the generator's own counters
     and latency histogram, so a drill can cross-check windowed rates
     and rolling quantiles from both ends of the wire. [skew] forces
     the final partial window closed when the burst ends, so short
     bursts still report at least one window. *)
  let skew = ref 0.0 in
  let ts_interval = 0.5 in
  let ts =
    Timeseries.create ~windows:240 ~interval_s:ts_interval
      ~clock:(fun () -> Unix.gettimeofday () +. !skew)
      {
        Timeseries.counters =
          (fun () ->
            [ ("load.sent", !sent);
              ("load.answered", !answered);
              ("load.ok", !ok);
              ("load.shed", !shed);
              ("load.retried", !retried) ]);
        histograms = (fun () -> [ ("load.latency", latency) ]);
        gauges =
          (fun () ->
            [ ("load.outstanding", float_of_int (!sent - !answered)) ]);
      }
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. spec.wall_timeout_s in
  (* Client-side retry with jittered exponential backoff: a shed reply
     re-enqueues the same request line after
     backoff * 2^(attempt-1) * U[0.5, 1.5) seconds. The jitter comes
     from the spec's seeded Rng, so a load run is reproducible; spacing
     retries out (rather than hammering in lockstep) is what lets a
     drained or briefly overloaded server recover. *)
  let by_id : (string, line) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun l ->
      match l.id with Some id -> Hashtbl.replace by_id id l | None -> ())
    lines;
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let retry_rng = Rng.make (spec.seed + 0x5eed) in
  let retry_q : (float * line) list ref = ref [] in
  let next_conn = ref 0 in
  (* Returns whether a retry was actually scheduled: the caller counts
     the triggering reply in [retried] exactly when it was, and in
     [shed] otherwise — each reply lands in exactly one outcome
     bucket. *)
  let schedule_retry id =
    match Hashtbl.find_opt by_id id with
    | None -> false
    | Some l ->
      let k = 1 + (try Hashtbl.find attempts id with Not_found -> 0) in
      Hashtbl.replace attempts id k;
      let base = float_of_int spec.retry_backoff_ms /. 1000.0 in
      let backoff = base *. (2.0 ** float_of_int (k - 1)) in
      let jittered = backoff *. (0.5 +. Rng.float retry_rng 1.0) in
      retry_q := (Unix.gettimeofday () +. jittered, l) :: !retry_q;
      incr retried;
      true
  in
  let expected () =
    (* every fully flushed line earns exactly one reply line *)
    !sent
  in
  let handle_reply line =
    incr answered;
    match Json.of_string line with
    | Error _ -> incr failed
    | Ok reply ->
      let rid =
        match Json.member "id" reply with
        | Some (Json.String id) -> Some id
        | _ -> None
      in
      (match rid with
      | Some id -> (
        match Hashtbl.find_opt sent_at id with
        | Some t ->
          Histogram.observe latency (Unix.gettimeofday () -. t);
          Hashtbl.remove sent_at id
        | None -> ())
      | None -> ());
      (match classify_reply reply with
      | `Ok d ->
        incr ok;
        if d then incr degraded
      | `Shed ->
        (* A shed reply that earns a retry is counted once, in
           [retried]; only terminal sheds (retries disabled or
           exhausted) count in [shed]. *)
        let retrying =
          match rid with
          | Some id
            when spec.retries > 0
                 && (try Hashtbl.find attempts id with Not_found -> 0)
                    < spec.retries ->
            schedule_retry id
          | _ -> false
        in
        if not retrying then incr shed
      | `Protocol -> incr protocol_errors
      | `Failed -> incr failed)
  in
  (* Move due retries onto a live connection, round-robin. *)
  let release_due now =
    match !retry_q with
    | [] -> ()
    | q ->
      let due, later = List.partition (fun (at, _) -> at <= now) q in
      retry_q := later;
      List.iter
        (fun (_, l) ->
          let n = Array.length conns in
          let rec pick k =
            if k >= n then None
            else
              let c = conns.((!next_conn + k) mod n) in
              if c.alive then Some c else pick (k + 1)
          in
          incr next_conn;
          match pick 0 with
          | Some c -> c.outbox <- c.outbox @ [ l ]
          | None -> ())
        due
  in
  let kill c =
    if c.alive then begin
      c.alive <- false;
      Wire.close c.wire;
      c.outbox <- []
    end
  in
  let pump_out c =
    match c.outbox with
    | [] -> ()
    | line :: rest -> (
      let len = String.length line.text in
      match
        Unix.write_substring (Line_reader.fd c.wire) line.text c.out_off
          (len - c.out_off)
      with
      | 0 -> ()
      | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = len then begin
          c.outbox <- rest;
          c.out_off <- 0;
          incr sent;
          match line.id with
          | Some id -> Hashtbl.replace sent_at id (Unix.gettimeofday ())
          | None -> ()
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> kill c)
  in
  let rec drain c =
    match Line_reader.next_line c.wire with
    | Some line ->
      handle_reply line;
      drain c
    | None -> ()
  in
  let pump_in c =
    match Line_reader.fill c.wire with
    | 0 -> kill c
    | _ -> drain c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> kill c
  in
  let live () = Array.exists (fun c -> c.alive) conns in
  let outstanding () =
    Array.exists (fun c -> c.alive && c.outbox <> []) conns
    || !answered < expected ()
    || !retry_q <> []
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    release_due now;
    Timeseries.tick ts;
    if now >= deadline || (not (live ())) || not (outstanding ()) then ()
    else begin
      let readers =
        Array.to_list conns
        |> List.filter (fun c -> c.alive)
        |> List.map (fun c -> Line_reader.fd c.wire)
      in
      let writers =
        Array.to_list conns
        |> List.filter (fun c -> c.alive && c.outbox <> [])
        |> List.map (fun c -> Line_reader.fd c.wire)
      in
      let timeout = min 0.2 (deadline -. now) in
      let timeout =
        (* wake in time for the earliest scheduled retry *)
        List.fold_left
          (fun t (at, _) -> Float.min t (Float.max 0.0 (at -. now)))
          timeout !retry_q
      in
      match Unix.select readers writers [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | rs, ws, _ ->
        let ready fds c = c.alive && List.mem (Line_reader.fd c.wire) fds in
        Array.iter (fun c -> if ready ws c then pump_out c) conns;
        Array.iter (fun c -> if ready rs c then pump_in c) conns;
        loop ()
    end
  in
  loop ();
  Array.iter kill conns;
  skew := ts_interval;
  Timeseries.tick ts;
  {
    sent = !sent;
    answered = !answered;
    ok = !ok;
    degraded = !degraded;
    shed = !shed;
    failed = !failed;
    protocol_errors = !protocol_errors;
    unanswered = !sent - !answered;
    retried = !retried;
    wall_s = Unix.gettimeofday () -. t0;
    latency;
    rolling = Timeseries.to_json ts;
  }

(* The accounting identities: every line sent is answered or not, and
   every reply lands in exactly one outcome bucket ([retried] holds the
   shed replies that scheduled a retry). Checked at reporting time so a
   classification regression fails loudly rather than skewing tallies. *)
let report_json r =
  assert (r.sent = r.answered + r.unanswered);
  assert (
    r.answered = r.ok + r.shed + r.failed + r.protocol_errors + r.retried);
  Json.Obj
    [ ("sent", Json.Int r.sent);
      ("answered", Json.Int r.answered);
      ("ok", Json.Int r.ok);
      ("degraded", Json.Int r.degraded);
      ("shed", Json.Int r.shed);
      ("failed", Json.Int r.failed);
      ("protocol_errors", Json.Int r.protocol_errors);
      ("unanswered", Json.Int r.unanswered);
      ("retried", Json.Int r.retried);
      ("wall_s", Json.Float r.wall_s);
      ("latency", Histogram.summary_json r.latency);
      ("rolling", r.rolling) ]
