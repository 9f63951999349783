(** Newline framing over a socket, for both ends of the serve protocol
    (DESIGN §12): the daemon reads each connection's requests through
    one, and the clients ({!Repair_workload.Wire}) their replies.

    A reader keeps the bytes it has read but not yet returned, and
    {!next_line} scans only bytes it has not scanned before, so a line
    of n bytes costs O(n) however many reads it takes. *)

type t

(** [of_fd fd] frames [fd], which it does not own. *)
val of_fd : Unix.file_descr -> t

val fd : t -> Unix.file_descr

(** [fill t] reads once into [t]'s buffer: the byte count, [0] at end
    of file. [Unix.read]'s errors propagate. *)
val fill : t -> int

(** [next_line t] is the next complete buffered line without its
    newline, or [None]; it never reads. *)
val next_line : t -> string option

(** [pending t] is the number of buffered bytes that {!next_line} has
    not returned: the start of an unfinished line. *)
val pending : t -> int

(** [discard t] drops the pending bytes. *)
val discard : t -> unit
