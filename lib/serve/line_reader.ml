(* Bytes [start, len) of [buf] are read but not yet returned as a line;
   [start, scanned) holds no newline. *)
type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable len : int;
}

let chunk = 65536

let of_fd fd =
  { fd; buf = Bytes.create (2 * chunk); start = 0; scanned = 0; len = 0 }

let fd t = t.fd

let pending t = t.len - t.start

(* Once nothing is pending, the buffer restarts at its front; one that a
   long line grew goes back to the default size, so a long-lived
   connection does not keep its largest line's buffer. *)
let discard t =
  if Bytes.length t.buf > 2 * chunk then t.buf <- Bytes.create (2 * chunk);
  t.start <- 0;
  t.scanned <- 0;
  t.len <- 0

(* Without room for a chunk after [len], the unread bytes move to the
   front, into a buffer twice their size plus a chunk if they need it. *)
let fill t =
  if t.len + chunk > Bytes.length t.buf then begin
    let live = t.len - t.start in
    let b =
      if live + chunk <= Bytes.length t.buf then t.buf
      else Bytes.create (2 * (live + chunk))
    in
    Bytes.blit t.buf t.start b 0 live;
    t.buf <- b;
    t.len <- live;
    t.scanned <- t.scanned - t.start;
    t.start <- 0
  end;
  let n = Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) in
  t.len <- t.len + n;
  n

let next_line t =
  let rec scan i =
    if i = t.len then begin
      t.scanned <- i;
      None
    end
    else if Bytes.get t.buf i <> '\n' then scan (i + 1)
    else begin
      let line = Bytes.sub_string t.buf t.start (i - t.start) in
      if i + 1 = t.len then discard t
      else begin
        t.start <- i + 1;
        t.scanned <- i + 1
      end;
      Some line
    end
  in
  scan t.scanned
