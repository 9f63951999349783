(** The write-ahead journal behind the batch runner: an append-only
    file, one checksummed record per line, every append followed by
    [fsync].

    {2 Framing}

    A framed record is ['@' len ':' crc ':' payload '\n']: [len] is the
    decimal byte length of [payload], [crc] is the CRC-32 of [payload]
    as 8 lowercase hex digits, and [payload] is the compact JSON
    rendering of the entry (control characters escaped, so a payload
    never contains a raw newline). Framing is the only format: a journal
    written before framing (plain JSONL) fails the frame grammar at byte
    0, so recovery refuses it as corruption (below) and never replays it
    unchecked.

    {2 Record stream}

    A run writes, in order: one [Begin] header, then per job a [Start]
    record for each attempt, zero or more [Retry] records, and exactly one
    terminal record — [Commit] (the job produced a repair, possibly
    degraded) or [Quarantine] (the job is poison: it failed every attempt,
    or failed permanently). Terminal records are the {e commit points} of
    the protocol: a job whose terminal record reached the journal is never
    executed again.

    {2 Crash recovery}

    {!recover} implements standard WAL recovery: the valid prefix of the
    file is the longest run of well-formed records ending at [Begin] or at
    a terminal record. Anything after it — dangling [Start]/[Retry]
    records of an in-flight job, or a torn final record from a crash
    mid-write — is uncommitted and is truncated away, so a resumed run
    replays the in-flight job from its first attempt and appends exactly
    the bytes an uninterrupted run would have — {e up to the [wall_ms]
    field} of [Commit] records, the one place a journal records
    wall-clock time (per-job telemetry feeding the batch latency
    histograms). Everything else is a pure function of the manifest and
    the (deterministic) job outcomes, which is what lets the
    kill-at-every-checkpoint test demand byte-for-byte equality after
    normalising [wall_ms].

    Torn tail vs corruption: an interrupted append can only leave an
    {e incomplete} final chunk (no terminating newline), which is
    truncated exactly as above. A {e complete} record that fails the
    frame grammar, its CRC-32, or the JSON parse cannot be explained by
    a crash — it is damage. Recovery then stops at the last valid commit
    point, moves every byte past it to a [<journal>.corrupt] sidecar,
    truncates the journal to the trusted prefix, and raises the
    structured {!Repair_runtime.Repair_error.t}[.Corruption] class (CLI
    exit code 11) — it never replays past damage and never raises an
    unclassified exception. A subsequent resume recovers the trusted
    prefix cleanly and re-runs what was lost. *)

type entry =
  | Begin of { jobs : int }  (** batch header; pins the manifest job count *)
  | Start of { job : string; attempt : int }  (** attempt [attempt] began *)
  | Retry of { job : string; attempt : int; error : string; backoff_ms : int }
      (** attempt [attempt] failed transiently with error class [error];
          the runner backs off [backoff_ms] ms and tries again *)
  | Commit of {
      job : string;
      attempt : int;
      status : [ `Ok | `Degraded ];
      method_used : string;
      distance : float;
      wall_ms : float;
          (** wall-clock duration of the committing attempt; the only
              non-deterministic journal field. Read back as [0.0] from
              journals predating telemetry. *)
      counters : (string * int) list;
          (** the job's metrics-counter deltas (empty when metrics are
              off) *)
    }  (** terminal: the repair of attempt [attempt] is durable *)
  | Quarantine of {
      job : string;
      attempts : int;
      error : string;
      detail : string;
      counters : (string * int) list;
    }
      (** terminal: poison job — error class, human detail, and the
          job's metrics-counter deltas (empty when metrics are off) *)

val entry_to_json : entry -> Repair_obs.Json.t

val entry_of_json : Repair_obs.Json.t -> (entry, string) result

(** [is_terminal e] — is [e] a commit point ([Begin]/[Commit]/
    [Quarantine])? *)
val is_terminal : entry -> bool

(** {2 Appending} *)

(** [frame payload] is the framed record ['@' len ':' crc ':' payload
    '\n'] of one rendered entry. *)
val frame : string -> string

type writer

(** [open_append ?sync path] opens (creating if needed) the journal for
    appending. [sync] (default [true]) controls the per-append [fsync];
    benchmarks disable it to isolate append cost — durable runs never
    do.
    @raise Repair_runtime.Repair_error.Error ([Io]) on failure. *)
val open_append : ?sync:bool -> string -> writer

(** [append w e] writes [e] as one framed line and [fsync]s the file,
    so the record is durable before the call returns.
    All writes go through {!Repair_runtime.Io_fault}: short writes and
    [EINTR] (injected or genuine) are absorbed, other failures raise the
    classified [Io] error, and {!Repair_runtime.Io_fault.Crash}
    propagates raw.
    @raise Repair_runtime.Repair_error.Error ([Io]) on failure. *)
val append : writer -> entry -> unit

val close : writer -> unit

(** {2 Recovery} *)

type recovery = {
  entries : entry list;  (** the valid committed prefix, in file order *)
  committed : (string * entry) list;
      (** job id → its terminal [Commit]/[Quarantine] record *)
  truncated : bool;  (** an uncommitted tail was discarded *)
}

(** [corrupt_sidecar path] is the sidecar file ([path ^ ".corrupt"])
    where recovery quarantines damaged bytes. *)
val corrupt_sidecar : string -> string

(** [recover path] scans the journal, truncates the file to its valid
    committed prefix (see above), and returns what survived. A missing
    file is an empty journal.
    @raise Repair_runtime.Repair_error.Error ([Io]) on filesystem
    failure, and ([Corruption]) when a complete record fails validation
    mid-file — in which case the damaged suffix has been moved to
    {!corrupt_sidecar} and the journal truncated to its trusted
    prefix. *)
val recover : string -> recovery
