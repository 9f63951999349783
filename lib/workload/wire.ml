module Server = Repair_serve.Server

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

let connect listen =
  let addr =
    match listen with
    | Server.Unix_sock path -> Unix.ADDR_UNIX path
    | Server.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd

let fd t = t.fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t s = Repair_runtime.Io_fault.write_all t.fd (Bytes.of_string s)

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
      t.start <- i + 1;
      t.scanned <- i + 1;
      Some line
    end
  in
  scan t.scanned

let rec read_line t =
  match next_line t with
  | Some _ as line -> line
  | None -> (
    match fill t with
    | 0 -> None
    | _ -> read_line t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t)
