(** Cooperative execution budgets: wall-clock deadlines and step limits.

    The exact baselines of this library ([S_exact], [U_exact], [Max_sat],
    repair enumeration) are exponential in the worst case; the paper's
    dichotomy guarantees real workloads routinely land on the hard side.
    A {!t} bounds how much work such a solver may do: the solver calls
    {!tick} inside its hot loop (a {e checkpoint}), and the tick raises
    {!Repair_error.Budget_exhausted} once the deadline has passed or the
    step allowance is spent. Drivers catch that error and degrade to a
    certified polynomial approximation.

    A budget measures two independent resources:
    - {b wall-clock}: [timeout_s] seconds from {!create};
    - {b steps}: at most [max_steps] checkpoints.

    Step budgets are deterministic (a pure function of the instance), so
    tests use them; timeouts are for production callers. {!tick} also
    drives the {!Fault} injector, so checkpoints exist — and faults can
    fire — even under the {!unlimited} budget.

    Budgets are mutable and single-shot: reusing one across calls makes
    the calls share the allowance (which is exactly what a driver wants
    for a multi-phase pipeline). They are not thread-safe. *)

type t

(** [create ?timeout_s ?max_steps ()] starts a budget now. Omitted limits
    are unlimited. *)
val create : ?timeout_s:float -> ?max_steps:int -> unit -> t

(** [unlimited ()] is a {e fresh} budget with no limits — the default of
    every budgeted entry point. Ticking it only feeds the {!Fault}
    injector and the metrics tick counters. It is a function, not a
    shared value: a shared unlimited budget would accumulate [steps]
    across independent calls, so every driver entry creates its own. *)
val unlimited : unit -> t

(** [tick ?phase b] records one checkpoint. Raises
    {!Repair_error.Error}[ (Budget_exhausted _)] if [b] is spent, naming
    [phase] (default ["unphased"]); may raise an armed {!Fault} first.
    When {!Repair_obs.Metrics} is enabled, the same call site also bumps
    the ["ticks.<phase>"] counter — budget checks and metric increments
    share one checkpoint. Ticks emit no trace events: one per checkpoint
    would crowd the spans out of the trace ring. The counter name is
    interned per phase, so ticking allocates nothing after the first
    checkpoint of a phase (and nothing at all while metrics are
    disabled). *)
val tick : ?phase:string -> t -> unit

(** [steps b] — checkpoints recorded so far. *)
val steps : t -> int

(** [absorb b ~steps] adds [steps] checkpoints to [b] without raising,
    checkpointing, or feeding metrics — the accounting half of a tick,
    used by parallel drivers to fold the steps their worker tasks spent
    (each under its own fresh budget) back into the orchestrating
    budget at the barrier. Integer addition, so the total is independent
    of worker completion order. *)
val absorb : t -> steps:int -> unit

(** [elapsed b] — wall-clock seconds since [b] was created. *)
val elapsed : t -> float

(** [remaining_s b] — wall-clock seconds until the deadline ([None] when
    [b] has no wall limit; negative once the deadline has passed).
    Drivers that split one deadline across phases — e.g. the serving
    daemon capping per-request budgets by the drain deadline — read the
    remainder here instead of re-deriving it from [elapsed]. *)
val remaining_s : t -> float option

(** [limited b] — does [b] carry any finite limit? *)
val limited : t -> bool

(** [exhausted b] — non-raising probe: would the next {!tick} fail
    (ignoring faults)? *)
val exhausted : t -> bool
