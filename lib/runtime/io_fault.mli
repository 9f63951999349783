(** Deterministic syscall fault injection for durability paths.

    {!Fault} makes {e algorithmic} failure deterministic (budget
    exhaustion at the N-th checkpoint); this module does the same for
    the {e IO boundary}. A plan — a list of one-shot steps — is armed,
    and every write/fsync/rename/read that durability code routes
    through this shim counts against it. When an op's per-kind counter
    reaches a step's trigger, the step fires exactly once: a short
    write, a spurious [EINTR], [ENOSPC], a torn write followed by a
    simulated crash, or a silent bit flip. Disarmed (the default and
    production state), every entry point is a transparent passthrough to
    the corresponding [Unix] call with zero behavioural difference.

    Same single-writer contract as {!Fault}: the plan belongs to the
    domain that armed it; mediated ops from other domains neither count
    nor fire and behave exactly as if disarmed. Counters are per-op-kind
    ([at] = 3 on a {!Fsync} step means the third fsync, not the third
    mediated op of any kind), so a plan is a pure function of the
    program's op sequence and fires reproducibly.

    Test-only machinery, like {!Fault}. The shim itself ships in
    production builds (it is the hardened IO layer — [write_all] retries
    genuine [EINTR] and short writes from the kernel too), but arming a
    plan outside tests is never done. *)

type op =
  | Write  (** [Unix.write] *)
  | Fsync  (** [Unix.fsync] *)
  | Rename  (** [Unix.rename] *)
  | Read  (** [Unix.read] *)

type kind =
  | Short_write
      (** Transfer at most half of the requested bytes (at least 1).
          On {!Read}, a short read. Passthrough on {!Fsync}/{!Rename}. *)
  | Eintr  (** Fail once with [Unix.EINTR]; no bytes transferred. *)
  | Enospc
      (** Fail with [Unix.ENOSPC]; no bytes transferred. On {!Read}
          (which cannot [ENOSPC]) the failure is [Unix.EIO]. *)
  | Torn of int
      (** [Torn keep]: transfer the first [keep] bytes (clamped to the
          request), then raise {!Crash} — a kill mid-write. On
          {!Fsync}/{!Rename}/{!Read}, crash before the operation. *)
  | Bit_flip of int
      (** [Bit_flip b]: complete the transfer, but with bit
          [b mod (len * 8)] of the payload inverted — silent media
          corruption. Passthrough on {!Fsync}/{!Rename} and empty
          transfers. The caller's buffer is never mutated on write. *)

type step = { op : op; at : int; kind : kind }
(** Fire [kind] at the [at]-th (1-based) mediated op of kind [op] since
    {!arm}. One-shot: a fired step is removed from the plan. *)

exception Crash of { op : op; n : int }
(** Simulated process death raised by {!Torn} steps: [n] is the op
    counter at the moment of death. Deliberately {e not} a
    {!Repair_error.t} — a real crash is not classifiable, and recovery
    code must never depend on catching it. *)

(** [arm plan] installs [plan] for the calling domain and zeroes all op
    counters and the fired list.
    @raise Invalid_argument if any step has [at < 1]. *)
val arm : step list -> unit

(** [disarm ()] clears the plan, counters, and fired list. *)
val disarm : unit -> unit

(** [armed ()] — does the calling domain own a non-empty plan? *)
val armed : unit -> bool

(** [fired ()] — steps that have fired since {!arm}, in firing order. *)
val fired : unit -> step list

(** [seen op] — mediated ops of kind [op] counted since {!arm} (0 when
    disarmed or called from a non-owner domain). *)
val seen : op -> int

(** [with_plan plan f] runs [f ()] with [plan] armed and guarantees the
    shim is disarmed afterwards, even on exceptions. *)
val with_plan : step list -> (unit -> 'a) -> 'a

(** {1 Shim entry points}

    Drop-in replacements for the corresponding [Unix] functions,
    identical in every respect when no step fires. *)

val write : Unix.file_descr -> Bytes.t -> int -> int -> int
val fsync : Unix.file_descr -> unit
val rename : string -> string -> unit
val read : Unix.file_descr -> Bytes.t -> int -> int -> int

(** {1 Hardened helpers} *)

(** [write_all fd buf] writes all of [buf], absorbing short writes and
    retrying [EINTR] — injected or genuine. Other [Unix_error]s and
    {!Crash} propagate. *)
val write_all : Unix.file_descr -> Bytes.t -> unit

(** [read_file path] reads the whole file through the shim, retrying
    [EINTR] and absorbing short reads. A regular file is read up to its
    [fstat] size at open, into one buffer allocated once; other files
    are read until end of file.
    @raise Repair_error.Error [(Io _)] on open/read failure, with the
    system's message as the detail. *)
val read_file : string -> string

(** [write_file_atomic path text] writes [text] durably and atomically:
    [path ^ ".tmp"] is created, filled via {!write_all}, fsynced,
    closed, then renamed over [path]. Readers of [path] observe either
    the old contents or the complete new contents — never a torn
    intermediate state; a {!Crash} at any step leaves [path] untouched.

    Only a file this function may replace is renamed over: [path] when
    it is absent or a regular file. A symlink to a regular file is
    replaced like the file — the link itself, as any atomic save
    replaces it — and so is a dangling one. Any other existing file — a
    character device such as [/dev/null], a FIFO, a socket, or a
    symlink to one — is opened and written in place, without the
    temporary file or the fsync, so [-o /dev/null] never turns the
    device into a regular file. The test allocates nothing on the OCaml
    heap, so a write allocates the same whether [path] exists or not.
    @raise Repair_error.Error [(Io _)] on any [Unix_error] (after
    [EINTR] retry). *)
val write_file_atomic : string -> string -> unit
