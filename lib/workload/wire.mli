(** The client end of the serve protocol: one JSON line out per request,
    one line back per reply (DESIGN §12). {!Top}, {!Load_gen} and the
    CLI's [stream --socket] all connect and frame through it. Replies
    are read through the daemon's own {!Repair_serve.Line_reader}, so a
    reply of n bytes costs O(n) however many reads it takes. *)

type t = Repair_serve.Line_reader.t

(** [connect listen] connects to the daemon on [listen].
    @raise Unix.Unix_error when it cannot; the socket is closed. *)
val connect : Repair_serve.Server.listen -> t

(** [close t] closes the socket, ignoring errors. *)
val close : t -> unit

(** [send t s] writes all of [s], looping on short writes and [EINTR]
    ({!Repair_runtime.Io_fault.write_all}). *)
val send : t -> string -> unit

(** [read_line t] reads until a line is complete and returns it, or
    [None] when the peer closes first: an unfinished line is never
    returned. *)
val read_line : t -> string option
