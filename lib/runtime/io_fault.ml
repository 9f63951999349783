type op = Write | Fsync | Rename | Read

type kind = Short_write | Eintr | Enospc | Torn of int | Bit_flip of int

type step = { op : op; at : int; kind : kind }

exception Crash of { op : op; n : int }

let op_name = function
  | Write -> "write"
  | Fsync -> "fsync"
  | Rename -> "rename"
  | Read -> "read"

let () =
  Printexc.register_printer (function
    | Crash { op; n } ->
      Some (Printf.sprintf "Io_fault.Crash: killed at %s #%d" (op_name op) n)
    | _ -> None)

let plan : step list ref = ref []

let fired_rev : step list ref = ref []

(* Per-op counters, indexed by [op_index]. Counting per kind keeps each
   step's trigger a pure function of the program's op sequence for that
   kind, independent of unrelated ops interleaved between them. *)
let counts = Array.make 4 0

let op_index = function Write -> 0 | Fsync -> 1 | Rename -> 2 | Read -> 3

(* Single-writer contract, same as Fault: the plan belongs to the domain
   that armed it; mediated ops from other domains neither count nor
   fire. *)
let owner = ref (Domain.self ())

let arm steps =
  List.iter
    (fun s -> if s.at < 1 then invalid_arg "Io_fault.arm: at must be >= 1")
    steps;
  plan := steps;
  fired_rev := [];
  Array.fill counts 0 4 0;
  owner := Domain.self ()

let disarm () =
  plan := [];
  fired_rev := [];
  Array.fill counts 0 4 0

let armed () = (match !plan with [] -> false | _ -> true) && Domain.self () = !owner

let fired () = List.rev !fired_rev

let seen op = counts.(op_index op)

let with_plan steps f =
  arm steps;
  Fun.protect ~finally:disarm f

(* [trigger op] advances the counter for [op] and returns the kind of
   the step firing at this occurrence, if any. *)
let trigger op =
  if not (armed ()) then None
  else begin
    let i = op_index op in
    counts.(i) <- counts.(i) + 1;
    let n = counts.(i) in
    match List.find_opt (fun s -> s.op = op && s.at = n) !plan with
    | None -> None
    | Some s ->
      plan := List.filter (fun s' -> not (s' == s)) !plan;
      fired_rev := s :: !fired_rev;
      Repair_obs.Metrics.incr "io_fault.injected";
      Some s.kind
  end

let unix_fail e op = raise (Unix.Unix_error (e, op_name op, ""))

let crash op = raise (Crash { op; n = counts.(op_index op) })

let flip_bit buf pos len b =
  (* Normalise to a bit inside the transfer, then invert it. *)
  let nbits = len * 8 in
  let bit = ((b mod nbits) + nbits) mod nbits in
  let byte = pos + (bit / 8) and k = bit mod 8 in
  Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl k)))

let rec plain_write_all fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    plain_write_all fd buf (pos + n) (len - n)
  end

let write fd buf pos len =
  match trigger Write with
  | None -> Unix.write fd buf pos len
  | Some Short_write ->
    if len = 0 then Unix.write fd buf pos len
    else Unix.write fd buf pos (max 1 (len / 2))
  | Some Eintr -> unix_fail Unix.EINTR Write
  | Some Enospc -> unix_fail Unix.ENOSPC Write
  | Some (Torn keep) ->
    let k = min (max keep 0) len in
    if k > 0 then plain_write_all fd buf pos k;
    crash Write
  | Some (Bit_flip b) ->
    if len = 0 then Unix.write fd buf pos len
    else begin
      (* Corrupt a private copy: the caller's buffer stays pristine, as
         it would under real media corruption. *)
      let copy = Bytes.sub buf pos len in
      flip_bit copy 0 len b;
      plain_write_all fd copy 0 len;
      len
    end

let fsync fd =
  match trigger Fsync with
  | None | Some Short_write | Some (Bit_flip _) -> Unix.fsync fd
  | Some Eintr -> unix_fail Unix.EINTR Fsync
  | Some Enospc -> unix_fail Unix.ENOSPC Fsync
  | Some (Torn _) -> crash Fsync

let rename src dst =
  match trigger Rename with
  | None | Some Short_write | Some (Bit_flip _) -> Unix.rename src dst
  | Some Eintr -> unix_fail Unix.EINTR Rename
  | Some Enospc -> unix_fail Unix.ENOSPC Rename
  | Some (Torn _) -> crash Rename

let read fd buf pos len =
  match trigger Read with
  | None -> Unix.read fd buf pos len
  | Some Short_write ->
    if len = 0 then Unix.read fd buf pos len
    else Unix.read fd buf pos (max 1 (len / 2))
  | Some Eintr -> unix_fail Unix.EINTR Read
  | Some Enospc -> unix_fail Unix.EIO Read
  | Some (Torn _) -> crash Read
  | Some (Bit_flip b) ->
    let n = Unix.read fd buf pos len in
    if n > 0 then flip_bit buf pos n b;
    n

let write_all fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then begin
      let n =
        try write fd buf off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
    end
  in
  go 0

let read_file path =
  let io e =
    Repair_error.raise_error (Io { file = path; detail = Unix.error_message e })
  in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) -> io e
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:close @@ fun () ->
  (* [fill b off] reads into [b] from [off] until [b] is full or the file
     ends, and returns the end offset. *)
  let rec fill b off =
    if off = Bytes.length b then off
    else
      match read fd b off (Bytes.length b - off) with
      | 0 -> off
      | n -> fill b (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill b off
      | exception Unix.Unix_error (e, _, _) -> io e
  in
  (* A regular file is read into one buffer of its fstat size, so it is
     allocated once. Anything else (a pipe, a device, a directory) is
     read in 64 KB chunks until the end. *)
  match Unix.fstat fd with
  | exception Unix.Unix_error (e, _, _) -> io e
  | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
    let b = Bytes.create st_size in
    let n = fill b 0 in
    if n = st_size then Bytes.unsafe_to_string b else Bytes.sub_string b 0 n
  | _ ->
    let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
    let rec go () =
      match fill chunk 0 with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    in
    go ()

(* [write_file_atomic] renames over [path] only when it is absent or a
   regular file (a symlink to one is replaced like the file, as any
   atomic save replaces it). Any other existing file — a character
   device such as /dev/null, a FIFO, a socket — is not ours to replace
   and is written in place. The two tests allocate nothing on the OCaml
   heap, so a write allocates the same whether or not [path] exists. *)
let replaceable path = (not (Sys.file_exists path)) || Sys.is_regular_file path

let write_file_atomic path text =
  let io detail = Repair_error.raise_error (Io { file = path; detail }) in
  let fill ?(sync = true) fd =
    match
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd (Bytes.of_string text);
          if sync then fsync fd)
    with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
  in
  if not (replaceable path) then
    (* No fsync: a device or a pipe has nothing to make durable, and
       fsync on one fails with EINVAL. *)
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 with
    | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
    | fd -> fill ~sync:false fd
  else
    let tmp = path ^ ".tmp" in
    match
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with
    | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
    | fd -> (
      fill fd;
      match rename tmp path with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e))
