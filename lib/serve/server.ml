module Json = Repair_obs.Json
module Metrics = Repair_obs.Metrics
module Trace = Repair_obs.Trace
module Trace_export = Repair_obs.Trace_export
module Budget = Repair_runtime.Budget
module E = Repair_runtime.Repair_error

type listen = Unix_sock of string | Tcp of int

let exit_drain_cancelled = 10
let max_conn_out_bytes = 16 * 1024 * 1024

type exec =
  conn:int ->
  degraded:bool ->
  budget:Budget.t ->
  Protocol.request ->
  (string * Json.t) list

type conn = {
  fd : Unix.file_descr;
  cid : int;
  reader : Line_reader.t;  (** requests read but not yet handled *)
  out_q : string Queue.t;
  mutable out_off : int;  (** bytes of the queue head already written *)
  mutable out_bytes : int;
  mutable quota_used : int;
  mutable skipping : bool;  (** discarding the rest of an oversized line *)
  mutable last_read : float;
      (** last moment read progress was made; deadline base while a
          partial line is buffered or skipped *)
  mutable last_write : float;
      (** last moment write progress was made; deadline base while
          replies are pending *)
}

let listen_name = function
  | Unix_sock path -> path
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

let write_snapshot engine metrics_out =
  let text =
    Json.to_string ~pretty:true (Engine.snapshot_json engine) ^ "\n"
  in
  match metrics_out with
  | Some "-" ->
    print_string text;
    flush stdout
  | Some path ->
    (* Atomic (tmp + fsync + rename): a crash mid-flush must never leave
       a torn snapshot for monitoring to misread. *)
    Repair_runtime.Io_fault.write_file_atomic path text
  | None ->
    prerr_string text;
    flush stderr

let run ?(config = Engine.default_config) ?on_invalidate
    ?(on_close = fun _ -> ()) ?gauges ?metrics_out ?slow_log ?trace_out ?pool
    ~exec listen =
  (* Slow-request records are JSONL, one line per offending request,
     flushed eagerly — the log exists to be tailed while the incident is
     happening. *)
  let slow_chan =
    match slow_log with
    | Some "-" -> Some (stdout, false)
    | Some path ->
      Some (open_out_gen [ Open_append; Open_creat ] 0o644 path, true)
    | None -> None
  in
  let on_slow record =
    let line = Json.to_string record ^ "\n" in
    match slow_chan with
    | Some (ch, _) ->
      output_string ch line;
      flush ch
    | None ->
      prerr_string line;
      flush stderr
  in
  let close_slow () =
    match slow_chan with
    | Some (ch, owned) -> if owned then close_out_noerr ch
    | None -> ()
  in
  let engine = Engine.create ?on_invalidate ~on_slow ?gauges config in
  Metrics.reset ();
  Metrics.enable ();
  (* With a trace destination, the serve owns the (single-writer) trace
     ring for its lifetime: request spans land on the owner lane, and —
     with a pool — worker-domain spans are captured and injected on
     per-task lanes, every event stamped with its wire request id. *)
  if trace_out <> None then Trace.enable ();
  let drain_requested = ref false in
  let install signal =
    Sys.signal signal (Sys.Signal_handle (fun _ -> drain_requested := true))
  in
  let old_term = install Sys.sigterm in
  let old_int = install Sys.sigint in
  let old_pipe =
    (* Writes to vanished clients must surface as EPIPE, not kill us. *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_signals () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    match old_pipe with
    | Some behavior -> Sys.set_signal Sys.sigpipe behavior
    | None -> ()
  in
  let lfd, cleanup_listen =
    try
      match listen with
      | Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        (fd, fun () -> (try Unix.unlink path with Unix.Unix_error _ -> ()))
      | Tcp port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        (fd, fun () -> ())
    with Unix.Unix_error (err, fn, _) ->
      restore_signals ();
      E.raise_error
        (Io
           {
             file = listen_name listen;
             detail = Printf.sprintf "%s: %s" fn (Unix.error_message err);
           })
  in
  Unix.set_nonblock lfd;
  Fmt.epr "repair-serve: listening on %s@." (listen_name listen);
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let listening = ref true in
  let drain_budget = ref None in
  (* Requests admitted and not yet settled, per connection: [on_close]
     waits for a closed connection's last one, so that no request runs
     for a cookie after its hook. *)
  let queued : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    if Hashtbl.mem conns c.cid then begin
      Hashtbl.remove conns c.cid;
      if not (Hashtbl.mem queued c.cid) then on_close c.cid
    end
  in
  let settled cid =
    match Hashtbl.find_opt queued cid with
    | Some k when k > 1 -> Hashtbl.replace queued cid (k - 1)
    | _ ->
      Hashtbl.remove queued cid;
      if not (Hashtbl.mem conns cid) then on_close cid
  in
  let enqueue_out c line =
    (* The write-stall clock measures pending-output-without-progress, so
       it restarts when the queue goes from empty to non-empty — a conn
       that flushed its last reply long ago must get the full deadline
       for this one, not be charged for the idle time in between. *)
    if Queue.is_empty c.out_q then c.last_write <- Unix.gettimeofday ();
    Queue.push line c.out_q;
    c.out_bytes <- c.out_bytes + String.length line;
    if c.out_bytes > max_conn_out_bytes then begin
      (* A reader this slow would otherwise grow the buffer without
         bound — disconnecting it is the OOM-safe answer. *)
      Metrics.incr "serve.slow-client-drops";
      close_conn c
    end
  in
  let route cid line =
    (match Hashtbl.find_opt conns cid with
    | Some c -> enqueue_out c line
    | None -> () (* client left; the outcome is already accounted *));
    settled cid
  in
  let flush_conn c =
    let closed = ref false in
    let progress = ref true in
    while (not !closed) && !progress && not (Queue.is_empty c.out_q) do
      let head = Queue.peek c.out_q in
      let len = String.length head - c.out_off in
      match Unix.write_substring c.fd head c.out_off len with
      | written ->
        c.out_bytes <- c.out_bytes - written;
        if written > 0 then c.last_write <- Unix.gettimeofday ();
        if written = len then begin
          ignore (Queue.pop c.out_q);
          c.out_off <- 0
        end
        else begin
          c.out_off <- c.out_off + written;
          progress := false
        end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        progress := false
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        closed := true
    done;
    if !closed then close_conn c
  in
  (* Per-connection progress deadlines (slow-loris / slow-reader
     defense): a connection holding a partial request line, or replies
     it will not read, must make progress within its deadline or it is
     evicted. Wholly idle connections (no partial input, nothing to
     write) are legitimate keep-alive and never evicted. Returns the
     earliest pending deadline so the select timeout can wake for it. *)
  let evict_stalled now =
    let victims = ref [] in
    let nearest = ref None in
    let consider d =
      nearest :=
        Some (match !nearest with None -> d | Some n -> Float.min n d)
    in
    Hashtbl.iter
      (fun _ c ->
        (match config.Engine.write_deadline_s with
        | Some d when not (Queue.is_empty c.out_q) ->
          if now -. c.last_write > d then victims := (c, `Write) :: !victims
          else consider (c.last_write +. d)
        | _ -> ());
        match config.Engine.read_deadline_s with
        | Some d when Line_reader.pending c.reader > 0 || c.skipping ->
          if now -. c.last_read > d then victims := (c, `Read) :: !victims
          else consider (c.last_read +. d)
        | _ -> ())
      conns;
    List.iter
      (fun (c, side) ->
        Metrics.incr "serve.evictions";
        Metrics.incr
          (match side with
          | `Read -> "serve.read-evictions"
          | `Write -> "serve.write-evictions");
        (* Best-effort goodbye on a read-stall: the socket buffer is
           almost certainly empty, but the client owes us nothing, so a
           single nonblocking write attempt is all it gets. A
           write-stalled client is not accepting bytes by definition. *)
        (match side with
        | `Read ->
          let line =
            Protocol.error_line ~id:Json.Null
              ~error_class:Protocol.err_deadline
              ~detail:"no request progress within read deadline; disconnecting"
          in
          (try
             ignore (Unix.write_substring c.fd line 0 (String.length line))
           with Unix.Unix_error _ -> ())
        | `Write -> ());
        close_conn c)
      !victims;
    !nearest
  in
  let begin_drain () =
    if Engine.mode engine = `Accepting then Engine.drain engine;
    if !listening then begin
      listening := false;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      cleanup_listen ()
    end;
    if !drain_budget = None then
      drain_budget :=
        Some (Budget.create ~timeout_s:config.Engine.drain_deadline_s ())
  in
  let drain_remaining () = Option.bind !drain_budget Budget.remaining_s in
  let budget_for (req : Protocol.request) =
    let base =
      match req.Protocol.timeout_s with
      | Some s -> Some s
      | None -> config.Engine.default_timeout_s
    in
    let timeout_s =
      (* During drain every request budget is additionally capped by the
         remaining drain allowance, so in-flight work cannot outlive the
         deadline by more than one checkpoint interval. *)
      match (drain_remaining (), base) with
      | Some rem, Some b -> Some (Float.max 0.001 (Float.min rem b))
      | Some rem, None -> Some (Float.max 0.001 rem)
      | None, b -> b
    in
    let max_steps =
      match (req.Protocol.max_steps, config.Engine.max_steps_cap) with
      | Some a, Some b -> Some (min a b)
      | Some a, None -> Some a
      | None, cap -> cap
    in
    Budget.create ?timeout_s ?max_steps ()
  in
  let exec_wrapped ~conn ~degraded req =
    exec ~conn ~degraded ~budget:(budget_for req) req
  in
  let handle_line_for c line =
    match
      Engine.handle_line engine ~conn:c.cid ~quota_used:c.quota_used line
    with
    | `Reply reply -> enqueue_out c reply
    | `Enqueued ->
      c.quota_used <- c.quota_used + 1;
      Hashtbl.replace queued c.cid
        (1 + Option.value ~default:0 (Hashtbl.find_opt queued c.cid))
    | `Drain reply ->
      enqueue_out c reply;
      drain_requested := true
  in
  (* Framing rules on top of the reader: a CR before the newline is
     stripped; a line over [max_request_bytes] gets one [oversized]
     reply, and so does an unfinished line already over it, whose bytes
     are then dropped through its newline ([skipping]). *)
  let max_bytes = config.Engine.max_request_bytes in
  let oversized c = enqueue_out c (Engine.reject_oversized engine) in
  let rec handle_lines c =
    match Line_reader.next_line c.reader with
    | Some _ when c.skipping ->
      c.skipping <- false;
      handle_lines c
    | Some line ->
      let len = String.length line in
      let line =
        if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1)
        else line
      in
      if String.length line > max_bytes then oversized c
      else handle_line_for c line;
      handle_lines c
    | None ->
      if c.skipping then Line_reader.discard c.reader
      else if Line_reader.pending c.reader > max_bytes then begin
        oversized c;
        c.skipping <- true;
        Line_reader.discard c.reader
      end
  in
  let handle_readable c =
    match Line_reader.fill c.reader with
    | 0 -> close_conn c
    | _ ->
      c.last_read <- Unix.gettimeofday ();
      handle_lines c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      close_conn c
  in
  let accept_ready () =
    let continue = ref !listening in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        incr next_cid;
        let now = Unix.gettimeofday () in
        Hashtbl.add conns !next_cid
          {
            fd;
            cid = !next_cid;
            reader = Line_reader.of_fd fd;
            out_q = Queue.create ();
            out_off = 0;
            out_bytes = 0;
            quota_used = 0;
            skipping = false;
            last_read = now;
            last_write = now;
          };
        Metrics.incr "serve.connections"
      | exception
          Unix.Unix_error
            ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
        continue := false
    done
  in
  let out_pending () =
    Hashtbl.fold
      (fun _ c acc -> acc || not (Queue.is_empty c.out_q))
      conns false
  in
  (* Best-effort flush window after the deadline fires: push what we can
     for a short, bounded moment, then give up. *)
  let flush_briefly () =
    let give_up = Budget.create ~timeout_s:0.5 () in
    let deadline_ok () =
      match Budget.remaining_s give_up with
      | Some r -> r > 0.0
      | None -> false
    in
    while out_pending () && deadline_ok () do
      let wfds =
        Hashtbl.fold
          (fun _ c acc ->
            if Queue.is_empty c.out_q then acc else (c.fd, c) :: acc)
          conns []
      in
      match Unix.select [] (List.map fst wfds) [] 0.05 with
      | _, writable, _ ->
        List.iter
          (fun (fd, c) -> if List.memq fd writable then flush_conn c)
          wfds
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let finished = ref false in
  while not !finished do
    (* Window boundaries for the rolling stats: once per poll iteration,
       so gauge samples and window closes track the poll cadence (and
       thus lag the configured interval by at most one poll timeout). *)
    Engine.tick_stats engine;
    if !drain_requested || Engine.mode engine = `Draining then begin_drain ();
    let queue_empty = Engine.queue_depth engine = 0 in
    if Engine.mode engine = `Draining && queue_empty && not (out_pending ())
    then finished := true
    else begin
      match drain_remaining () with
      | Some remaining when remaining <= 0.0 ->
        List.iter
          (fun (cid, line) -> route cid line)
          (Engine.cancel_remaining engine);
        flush_briefly ();
        finished := true
      | _ ->
        let next_deadline = evict_stalled (Unix.gettimeofday ()) in
        let fd_conns =
          Hashtbl.fold (fun _ c acc -> (c.fd, c) :: acc) conns []
        in
        let rfds =
          (if !listening then [ lfd ] else []) @ List.map fst fd_conns
        in
        let wfds =
          List.filter_map
            (fun (fd, c) ->
              if Queue.is_empty c.out_q then None else Some fd)
            fd_conns
        in
        let timeout =
          let base = if queue_empty then 0.2 else 0.0 in
          let base =
            (* Wake in time for the earliest connection deadline so
               eviction latency is bounded by the deadline itself, not
               by poll granularity. *)
            match next_deadline with
            | Some at ->
              Float.min base (Float.max 0.0 (at -. Unix.gettimeofday ()))
            | None -> base
          in
          match drain_remaining () with
          | Some remaining -> Float.min base (Float.max 0.0 remaining)
          | None -> base
        in
        let readable, writable, _ =
          try Unix.select rfds wfds [] timeout
          with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        in
        if !listening && List.memq lfd readable then accept_ready ();
        List.iter
          (fun (fd, c) -> if List.memq fd readable then handle_readable c)
          fd_conns;
        List.iter
          (fun (fd, c) ->
            if List.memq fd writable && Hashtbl.mem conns c.cid then
              flush_conn c)
          fd_conns;
        (* Drain up to [width] queued requests per poll: the pure halves
           run as pool tasks (or inline when no pool is given), then each
           request settles — counters, reply — on this domain, in
           take-order, so accounting and reply order match the
           sequential server exactly. Budgets are created here, before
           dispatch, because drain-deadline capping reads the drain
           state, which stays single-writer on this domain. *)
        let width =
          match pool with Some p -> Repair_par.Pool.domains p | None -> 1
        in
        let rec take_batch k acc =
          if k = 0 then List.rev acc
          else
            match Engine.take engine with
            | Some p -> take_batch (k - 1) (p :: acc)
            | None -> List.rev acc
        in
        (match take_batch width [] with
        | [] -> ()
        | [ p ] ->
          route p.Engine.conn (Engine.execute engine ~exec:exec_wrapped p)
        | batch -> (
          match pool with
          | None ->
            (* unreachable: width is 1 without a pool *)
            List.iter
              (fun p ->
                route p.Engine.conn
                  (Engine.execute engine ~exec:exec_wrapped p))
              batch
          | Some pool ->
            let prepared =
              List.map
                (fun p ->
                  let budget = budget_for p.Engine.request in
                  let exec ~conn ~degraded req =
                    exec ~conn ~degraded ~budget req
                  in
                  (p, fun () -> Engine.run_exec ~exec p))
                batch
            in
            let results =
              Repair_par.Pool.run pool
                (Array.of_list (List.map snd prepared))
            in
            List.iteri
              (fun i (p, _) ->
                route p.Engine.conn (Engine.settle engine p results.(i)))
              prepared))
    end
  done;
  flush_briefly ();
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  Hashtbl.reset conns;
  if !listening then begin
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    cleanup_listen ()
  end;
  restore_signals ();
  write_snapshot engine metrics_out;
  (match trace_out with
  | Some path ->
    let doc =
      Trace_export.to_chrome (Trace.events ()) ~dropped:(Trace.dropped ())
    in
    Repair_runtime.Io_fault.write_file_atomic path (Json.to_string doc ^ "\n");
    Trace.disable ();
    Trace.reset ()
  | None -> ());
  close_slow ();
  if (Engine.counters engine).Engine.cancelled > 0 then exit_drain_cancelled
  else 0
