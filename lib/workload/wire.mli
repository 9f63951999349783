(** The client end of the serve protocol: one JSON line out per request,
    one line back per reply (DESIGN §12). {!Top}, {!Load_gen} and the
    CLI's [stream --socket] all connect and frame through it.

    A connection keeps the bytes it has read but not yet returned, and
    {!next_line} scans only bytes it has not scanned before, so a reply
    of n bytes costs O(n) however many reads it takes. *)

type t

(** [connect listen] connects to the daemon on [listen].
    @raise Unix.Unix_error when it cannot; the socket is closed. *)
val connect : Repair_serve.Server.listen -> t

(** [of_fd fd] frames an already connected socket. *)
val of_fd : Unix.file_descr -> t

val fd : t -> Unix.file_descr

(** [close t] closes the socket, ignoring errors. *)
val close : t -> unit

(** [send t s] writes all of [s], looping on short writes and [EINTR]
    ({!Repair_runtime.Io_fault.write_all}). *)
val send : t -> string -> unit

(** [fill t] reads once into [t]'s buffer: the byte count, [0] at end
    of file. [Unix.read]'s errors propagate. *)
val fill : t -> int

(** [next_line t] is the next complete buffered line without its
    newline, or [None]; it never reads. *)
val next_line : t -> string option

(** [read_line t] reads until a line is complete and returns it, or
    [None] when the peer closes first: an unfinished line is never
    returned. *)
val read_line : t -> string option
