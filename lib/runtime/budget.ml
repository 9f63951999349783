type t = {
  deadline : float option;
  max_steps : int option;
  mutable steps : int;
  started : float;
  limited : bool;
}

let now () = Unix.gettimeofday ()

let create ?timeout_s ?max_steps () =
  let started = now () in
  {
    deadline = Option.map (fun s -> started +. s) timeout_s;
    max_steps;
    steps = 0;
    started;
    limited = timeout_s <> None || max_steps <> None;
  }

(* A function, not a shared value: a single global unlimited budget would
   accumulate [steps] across every independent call, skewing the
   ticks.<phase> metrics and any Fault checkpoint arithmetic that reads
   [steps]. Each entry point gets its own counter. *)
let unlimited () = create ()

let steps b = b.steps

let elapsed b = now () -. b.started

let remaining_s b = Option.map (fun dl -> dl -. now ()) b.deadline

let limited b = b.limited

let exhaust b ~phase =
  Repair_error.raise_error
    (Budget_exhausted { phase; elapsed = elapsed b; steps = b.steps })

(* Phase strings come from a handful of literal call sites, so the
   "ticks." ^ phase counter names are interned: building the name on
   every tick would allocate in the hottest loop of every solver (the
   disabled path must allocate nothing at all — bench E19 asserts it).
   The table is domain-local so worker domains ticking concurrently
   never share (or race on) one hashtable. *)
let tick_names_key : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let tick_name phase =
  let tick_names = Domain.DLS.get tick_names_key in
  match Hashtbl.find tick_names phase with
  | name -> name
  | exception Not_found ->
    let name = "ticks." ^ phase in
    Hashtbl.add tick_names phase name;
    name

let tick ?(phase = "unphased") b =
  b.steps <- b.steps + 1;
  if Repair_obs.Metrics.enabled () then
    Repair_obs.Metrics.incr (tick_name phase);
  if Fault.armed () then
    Fault.on_checkpoint ~phase ~elapsed:(elapsed b) ~steps:b.steps;
  if b.limited then begin
    (match b.max_steps with
    | Some m when b.steps > m -> exhaust b ~phase
    | _ -> ());
    match b.deadline with
    | Some dl when now () > dl -> exhaust b ~phase
    | _ -> ()
  end

(* Parallel drivers hand each worker task a fresh unlimited budget and
   fold the spent steps back into the orchestrating budget once the
   barrier has passed — integer addition, so the sum is independent of
   completion order. No limit check here: absorption happens only on the
   unlimited path (limited budgets run sequentially so their exhaustion
   point stays bit-identical). *)
let absorb b ~steps = b.steps <- b.steps + steps

let exhausted b =
  b.limited
  && ((match b.max_steps with Some m -> b.steps >= m | None -> false)
     ||
     match b.deadline with Some dl -> now () > dl | None -> false)
