(* Probes behind perfbench/run.py.

     layers.exe mix SEED OUT.jsonl            serve-mixed request lines
     layers.exe office TABLE.csv              office-cli, layer by layer
     layers.exe batch MANIFEST JOURNAL DIR    hard-batch, layer by layer
     layers.exe serve MIX.jsonl               serve-mixed, layer by layer

   The traced modes time calls into each layer's public functions from
   outside the program, on the same inputs the end-to-end run uses, and
   print one JSON object mapping metric names to numbers. The serve
   probe adds "_op.request_ms" and "_op.stream_ms", in-process medians
   that run.py sets against its client's latencies. *)

module R = Repair_core.Repair
open R.Relational
open R.Fd
module Json = R.Obs.Json
module Protocol = R.Serve.Protocol
module Session = R.Stream.Session
module Delta = R.Stream.Delta

let office_fds = "facility -> city; facility room -> floor"

(* ---------- accumulation ---------- *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt sums name) in
  Hashtbl.replace sums name (old +. v)

let sample name v =
  let old = Option.value ~default:[] (Hashtbl.find_opt samples name) in
  Hashtbl.replace samples name (v :: old)

(* [timed layer f] is [f ()] and its wall time in seconds; the bytes it
   allocated are charged to [<layer>.alloc_mb]. *)
let timed layer f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  add (layer ^ ".alloc_mb") ((Gc.allocated_bytes () -. a0) /. 1048576.0);
  (r, dt)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let emit () =
  let fields =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []
    @ Hashtbl.fold (fun k v acc -> (k, median v) :: acc) samples []
    |> List.sort compare
  in
  print_string
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) fields)));
  print_newline ()

let file_size path = float_of_int (Unix.stat path).Unix.st_size
let mb bytes = bytes /. 1048576.0

let load path =
  let tbl, dt = timed "relational" (fun () -> Csv_io.load ~name:"T" path) in
  add "relational.csv_load_s" dt;
  add "_op.load_bytes" (file_size path);
  (tbl, dt)

let render tbl =
  let text, dt = timed "relational" (fun () -> Csv_io.to_string tbl) in
  add "relational.csv_render_s" dt;
  add "_op.render_bytes" (float_of_int (String.length text));
  (text, dt)

let classify f =
  let _, dt = timed "dichotomy" f in
  sample "dichotomy.classify_us" (dt *. 1e6);
  dt

(* [solver layer name f] times the repair [f tbl] as [name]. *)
let solver layer name f tbl =
  let r, dt = timed layer (fun () -> f tbl) in
  add name dt;
  (r, dt)

(* One repair as the CLI runs it — load, classify, solve, distance,
   render — each step timed on its own. Returns the input, the repair,
   its CSV text and the sum of the step times. *)
let pipeline path ~classify:cls ~solve ~dist =
  let tbl, t_load = load path in
  let t_cls = classify cls in
  let result, t_solve = solve tbl in
  let _, t_dist = timed "relational" (fun () -> dist result tbl) in
  add "relational.dist_s" t_dist;
  let text, t_render = render result in
  (tbl, result, text, t_load +. t_cls +. t_solve +. t_dist +. t_render)

let finish_io () =
  let rate bytes secs = if secs > 0.0 then mb bytes /. secs else 0.0 in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt sums k) in
  add "relational.csv_load_mbps"
    (rate (get "_op.load_bytes") (get "relational.csv_load_s"));
  add "relational.csv_render_mbps"
    (rate (get "_op.render_bytes") (get "relational.csv_render_s"));
  Hashtbl.remove sums "_op.load_bytes";
  Hashtbl.remove sums "_op.render_bytes"

(* ---------- office-cli ---------- *)

(* Opt_s_repair.run's top level, taken apart: the first partition, the
   per-block solves, and the fold of Table.union over the solved
   blocks. Only the common-lhs case folds a union at the top. *)
let s_repair_parts d tbl expected =
  let d = Fd_set.remove_trivial d in
  match Fd_set.common_lhs d with
  | None -> ()
  | Some a ->
    let groups, dt =
      timed "relational" (fun () -> Table.group_by tbl (Attr_set.singleton a))
    in
    add "relational.group_by_s" dt;
    add "relational.groups" (float_of_int (List.length groups));
    let smaller = Fd_set.minus d (Attr_set.singleton a) in
    let solved, dt =
      timed "srepair" (fun () ->
          List.map
            (fun (_, sub) -> R.Srepair.Opt_s_repair.solve_block smaller sub)
            groups)
    in
    add "srepair.block_solve_s" dt;
    add "srepair.blocks" (float_of_int (List.length solved));
    let union, dt =
      timed "relational" (fun () ->
          List.fold_left Table.union (Table.empty (Table.schema tbl)) solved)
    in
    add "relational.union_fold_s" dt;
    if not (Table.equal union expected) then
      failwith "office: the top-level union differs from Opt_s_repair.run"

(* The pipeline plus the CLI's atomic write of the output, timed end to
   end in this process: trace.coverage.<name> is the share of that time
   the named layers account for. *)
let office_op name path ~classify ~solve ~dist =
  let t0 = Unix.gettimeofday () in
  let tbl, result, text, layers = pipeline path ~classify ~solve ~dist in
  R.Runtime.Io_fault.write_file_atomic (path ^ ".probe") text;
  add ("trace.coverage." ^ name) (layers /. (Unix.gettimeofday () -. t0));
  (tbl, result)

let office path =
  let d = Fd_set.parse office_fds in
  let tbl, s =
    office_op "s_repair" path
      ~classify:(fun () -> R.Dichotomy.Simplify.succeeds d)
      ~solve:
        (solver "srepair" "srepair.opt_s_repair_s"
           (R.Srepair.Opt_s_repair.run_exn d))
      ~dist:Table.dist_sub
  in
  s_repair_parts d tbl s;
  ignore
    (office_op "u_repair" path
       ~classify:(fun () -> R.Urepair.Opt_u_repair.tractable d)
       ~solve:
         (solver "urepair" "urepair.opt_u_repair_s"
            (R.Urepair.Opt_u_repair.solve_exn d))
       ~dist:Table.dist_upd);
  finish_io ()

(* ---------- hard-batch ---------- *)

(* The consensus-free components U_approx.best solves one by one. *)
let u_components d =
  let d = Fd_set.normalize d in
  Fd_set.remove_trivial (Fd_set.minus d (Fd_set.consensus_attrs d))
  |> Fd_set.components
  |> List.filter (fun c -> not (Fd_set.is_trivial c))

(* A job's pipeline, then the parts of its solver. Returns the sum of
   the pipeline's layer times. *)
let batch_job (job : R.Batch.Manifest.job) =
  let d = Fd_set.parse job.fds in
  match job.kind with
  | R.Batch.Manifest.S_repair ->
    let tbl, _, _, layers =
      pipeline job.input
        ~classify:(fun () -> R.Dichotomy.Simplify.succeeds d)
        ~solve:(solver "srepair" "srepair.s_approx_s" (R.Srepair.S_approx.approx2 d))
        ~dist:Table.dist_sub
    in
    let cg, dt =
      timed "srepair" (fun () -> R.Srepair.Conflict_graph.build d tbl)
    in
    add "srepair.conflict_graph_s" dt;
    add "srepair.conflict_edges"
      (float_of_int (R.Srepair.Conflict_graph.n_conflicts cg));
    let cover, dt =
      timed "graph" (fun () ->
          R.Graph.Vertex_cover.approx2 (R.Srepair.Conflict_graph.graph cg))
    in
    add "graph.vertex_cover_s" dt;
    add "graph.cover_size" (float_of_int (List.length cover));
    layers
  | R.Batch.Manifest.U_repair ->
    let tbl, _, _, layers =
      pipeline job.input
        ~classify:(fun () -> R.Urepair.Opt_u_repair.tractable d)
        ~solve:
          (solver "urepair" "urepair.u_approx_s" (fun tbl ->
               fst (R.Urepair.U_approx.best d tbl)))
        ~dist:Table.dist_upd
    in
    List.iter
      (fun c ->
        ignore
          (solver "urepair" "urepair.via_s_repair_s"
             (R.Urepair.U_approx.via_s_repair c) tbl);
        ignore
          (solver "urepair" "urepair.u_heuristic_s"
             (R.Urepair.U_heuristic.local_repair c) tbl))
      (u_components d);
    layers

(* Appends the records a run over [jobs] writes (begin, then a start and
   a commit per job), each fsync'd, and samples the append latency. *)
let journal_appends dir (jobs : R.Batch.Manifest.job list) =
  let module J = R.Batch.Journal in
  let path = Filename.concat dir "probe.journal" in
  if Sys.file_exists path then Sys.remove path;
  let w = J.open_append path in
  let append e =
    let (), dt = timed "batch" (fun () -> J.append w e) in
    sample "batch.journal_append_ms" (dt *. 1000.0)
  in
  append (J.Begin { jobs = List.length jobs });
  List.iter
    (fun (job : R.Batch.Manifest.job) ->
      append (J.Start { job = job.id; attempt = 1 });
      append
        (J.Commit
           { job = job.id; attempt = 1; status = `Ok; method_used = "probe";
             distance = 0.0; wall_ms = 0.0; counters = [] }))
    jobs;
  J.close w

let batch manifest journal dir =
  let m = R.Batch.Manifest.load manifest in
  let job_s = ref 0.0 and layers_s = ref 0.0 in
  List.iter
    (fun (job : R.Batch.Manifest.job) ->
      let output = Some (Filename.concat dir (job.id ^ ".probe.csv")) in
      let _, dt =
        timed "batch" (fun () -> R.Batch.exec_job { job with output })
      in
      job_s := !job_s +. dt;
      layers_s := !layers_s +. batch_job job)
    m.jobs;
  add "batch.job_s" !job_s;
  add "trace.coverage.batch_job" (!layers_s /. !job_s);
  journal_appends dir m.jobs;
  add "batch.journal_records"
    (float_of_int (List.length (R.Batch.Journal.recover journal).entries));
  finish_io ()

(* ---------- serve-mixed ---------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let parse_request line =
  let r, dt = timed "serve" (fun () -> Protocol.parse line) in
  sample "serve.protocol_parse_us" (dt *. 1e6);
  match r with
  | Ok req -> (req, dt)
  | Error (rej : Protocol.reject) -> failwith ("serve: bad mix line: " ^ rej.detail)

(* A stream request with a table starts the session; run.py times that
   one apart from the delta-carrying requests, and so does this probe. *)
let stream_request session (req : Protocol.request) t_parse =
  if req.table <> "" then begin
    let base, dt =
      timed "relational" (fun () -> Csv_io.parse_string ~name:"T" req.table)
    in
    add "relational.csv_load_s" dt;
    add "_op.load_bytes" (float_of_int (String.length req.table));
    let d = Fd_set.parse req.fds in
    let s, _ = timed "stream" (fun () -> Session.create d base) in
    session := Some s
  end
  else begin
    let s = Option.get !session in
    let ticks = ref 0.0 in
    List.iter
      (fun line ->
        if String.trim line <> "" then begin
          let delta, dt = timed "stream" (fun () -> Delta.parse line) in
          sample "stream.delta_parse_us" (dt *. 1e6);
          let (), dt' = timed "stream" (fun () -> Session.tick s delta) in
          sample "stream.tick_us" (dt' *. 1e6);
          ticks := !ticks +. dt +. dt'
        end)
      (String.split_on_char '\n' req.deltas);
    let r, t_sum = timed "stream" (fun () -> Session.summary s) in
    let _, t_render =
      timed "stream" (fun () -> Csv_io.to_string r.Session.result)
    in
    sample "stream.summary_ms" (t_sum *. 1000.0);
    sample "stream.render_ms" (t_render *. 1000.0);
    sample "_op.stream_ms" ((t_parse +. !ticks +. t_sum +. t_render) *. 1000.0)
  end

let serve mix =
  let cache = R.Serve.make_cache () in
  let sessions = R.Serve.make_sessions () in
  let mutex = Mutex.create () in
  let session = ref None in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let req, t_parse = parse_request line in
      match req.op with
      | Protocol.Stream -> stream_request session req t_parse
      | _ ->
        if not (Hashtbl.mem seen req.fds) then begin
          Hashtbl.add seen req.fds ();
          let d = Fd_set.parse req.fds in
          ignore
            (classify (fun () ->
                 ignore (R.Dichotomy.Simplify.succeeds d);
                 R.Urepair.Opt_u_repair.tractable d))
        end;
        if req.table <> "" then begin
          let _, dt =
            timed "relational" (fun () ->
                Csv_io.parse_string ~name:"T" req.table)
          in
          add "relational.csv_load_s" dt;
          add "_op.load_bytes" (float_of_int (String.length req.table))
        end;
        let budget = R.Runtime.Budget.create ~timeout_s:10.0 () in
        let fields, t_exec =
          timed "serve" (fun () ->
              R.Serve.exec ~cache ~sessions ~mutex ~conn:0 ~degraded:false
                ~budget req)
        in
        sample "serve.exec_ms" (t_exec *. 1000.0);
        let _, t_render =
          timed "serve" (fun () -> Protocol.ok_line ~id:req.id fields)
        in
        sample "serve.reply_render_us" (t_render *. 1e6);
        sample "_op.request_ms" ((t_parse +. t_exec +. t_render) *. 1000.0))
    (read_lines mix);
  let st = R.Serve.Cache.stats cache in
  add "serve.cache_hits" (float_of_int st.hits);
  add "serve.cache_misses" (float_of_int st.misses);
  add "serve.cache_hit_ratio"
    (float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)));
  (match !session with
  | None -> ()
  | Some s ->
    let st = Session.stats s in
    add "stream.ticks" (float_of_int st.ticks);
    add "stream.summaries" (float_of_int st.summaries));
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  add "stream.heap_mb" (mb (float_of_int (heap_words * (Sys.word_size / 8))));
  finish_io ()

(* ---------- serve-mixed inputs ---------- *)

let fd_text d =
  let side s = String.concat " " (Attr_set.elements s) in
  Fd_set.to_list d
  |> List.map (fun fd -> side (Fd.lhs fd) ^ " -> " ^ side (Fd.rhs fd))
  |> String.concat "; "

(* Eight distinct FD sets over R(A1..A5) from Gen_fd: three chains,
   three common-lhs sets and two random sets on the hard side. *)
let fd_sets rng =
  let module G = R.Workload.Gen_fd in
  let seen = Hashtbl.create 8 in
  let rec draw n gen accept acc =
    if n = 0 then acc
    else
      let _, d = gen () in
      let text = fd_text d in
      if Hashtbl.mem seen text || Fd_set.is_trivial d || not (accept d) then
        draw n gen accept acc
      else begin
        Hashtbl.add seen text ();
        draw (n - 1) gen accept ((text, d) :: acc)
      end
  in
  let any _ = true in
  let hard d = not (R.Dichotomy.Simplify.succeeds d) in
  let n_fds () = R.Workload.Rng.in_range rng 2 3 in
  []
  |> draw 3 (fun () -> G.chain rng ~n_attrs:5 ~n_fds:(n_fds ())) any
  |> draw 3 (fun () -> G.common_lhs rng ~n_attrs:5 ~n_fds:(n_fds ())) any
  |> draw 2 (fun () -> G.random rng ~n_attrs:5 ~n_fds:2 ~max_lhs:2) hard
  |> List.rev |> Array.of_list

let small_requests = 2400
let stream_every = 20
let stream_rows = 20000
let deltas_per_stream = 200

(* Balanced deltas over a live-id pool: each pair deletes a random live
   tuple and inserts a perturbed copy of another under a fresh id. *)
let stream_deltas rng base =
  let module Rng = R.Workload.Rng in
  let live = ref (Array.of_list (Table.ids base)) in
  let n_live = ref (Array.length !live) in
  let rows = Hashtbl.create (2 * !n_live) in
  Table.iter (fun i t _ -> Hashtbl.replace rows i (Tuple.values t)) base;
  let next_id = ref (Array.fold_left max 0 !live + 1) in
  let push id =
    if !n_live = Array.length !live then
      live := Array.append !live (Array.make !n_live 0);
    !live.(!n_live) <- id;
    incr n_live
  in
  let insert () =
    let src = Hashtbl.find rows !live.(Rng.int rng !n_live) in
    let values =
      List.map
        (fun v ->
          if Rng.bernoulli rng 0.05 then Value.int (Rng.in_range rng 1 1000)
          else v)
        src
    in
    let id = !next_id in
    incr next_id;
    Hashtbl.replace rows id values;
    push id;
    Delta.to_line (Delta.Insert { id = Some id; weight = 1.0; values })
  in
  let delete () =
    let k = Rng.int rng !n_live in
    let id = !live.(k) in
    decr n_live;
    !live.(k) <- !live.(!n_live);
    Hashtbl.remove rows id;
    Delta.to_line (Delta.Delete { id })
  in
  fun () ->
    List.init (deltas_per_stream / 2) (fun _ ->
        let i = insert () in
        let d = delete () in
        i ^ "\n" ^ d)
    |> String.concat "\n"

let mix seed out =
  let module Rng = R.Workload.Rng in
  let module Gen = R.Workload.Gen_table in
  let rng = Rng.make seed in
  (* The FD sets stay the same for every seed: which sets a seed drew
     would otherwise move the per-request medians from seed to seed. *)
  let sets = fd_sets (Rng.make 2018) in
  let schema = R.Workload.Gen_fd.schema 5 in
  let office_d = Fd_set.parse office_fds in
  let base =
    Gen.dirty rng
      (Schema.make "T" [ "facility"; "room"; "city"; "floor" ])
      office_d
      { Gen.default with n = stream_rows; domain_size = 1000 }
  in
  let next_deltas = stream_deltas rng base in
  let oc = open_out_bin out in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let id = ref 0 in
  let emit_line ~op ?table ?deltas fds =
    incr id;
    output_string oc
      (Protocol.request_line ~id:(Json.Int !id) ~op ~fds ?table ?deltas ())
  in
  emit_line ~op:Protocol.Stream ~table:(Csv_io.to_string base) ~deltas:""
    office_fds;
  for k = 1 to small_requests do
    let text, d = sets.(Rng.int rng (Array.length sets)) in
    let n = Rng.in_range rng 40 200 in
    let op =
      match Rng.int rng 5 with
      | 0 -> Protocol.Classify
      | 1 | 2 -> Protocol.S_repair
      | _ -> Protocol.U_repair
    in
    (match op with
    | Protocol.Classify -> emit_line ~op text
    | _ ->
      let tbl = Gen.dirty rng schema d { Gen.default with n } in
      emit_line ~op ~table:(Csv_io.to_string tbl) text);
    if k mod stream_every = 0 then
      emit_line ~op:Protocol.Stream ~deltas:(next_deltas ()) office_fds
  done

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "mix"; seed; out ] -> mix (int_of_string seed) out
  | [ "office"; table ] -> office table; emit ()
  | [ "batch"; manifest; journal; dir ] -> batch manifest journal dir; emit ()
  | [ "serve"; mix ] -> serve mix; emit ()
  | _ ->
    prerr_endline
      "usage: layers.exe (mix SEED OUT | office TABLE | batch MANIFEST \
       JOURNAL DIR | serve MIX)";
    exit 2
