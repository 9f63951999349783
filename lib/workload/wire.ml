module Server = Repair_serve.Server
module Line_reader = Repair_serve.Line_reader

type t = Line_reader.t

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
  Line_reader.of_fd fd

let close t = try Unix.close (Line_reader.fd t) with Unix.Unix_error _ -> ()

let send t s =
  Repair_runtime.Io_fault.write_all (Line_reader.fd t) (Bytes.of_string s)

let rec read_line t =
  match Line_reader.next_line t with
  | Some _ as line -> line
  | None -> (
    match Line_reader.fill t with
    | 0 -> None
    | _ -> read_line t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t)
