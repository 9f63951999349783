open Repair_relational
open Repair_fd

type step =
  | Common_lhs of Attr_set.attribute
  | Consensus of Fd.t
  | Marriage of Attr_set.t * Attr_set.t

let step d =
  match Fd_set.common_lhs d with
  | Some a -> Some (Common_lhs a)
  | None -> (
    match Fd_set.consensus_fd d with
    | Some fd -> Some (Consensus fd)
    | None ->
      Fd_set.lhs_marriage d |> Option.map (fun (x1, x2) -> Marriage (x1, x2)))

let partition = function
  | Common_lhs a -> Attr_set.singleton a
  | Consensus fd -> Fd.rhs fd
  | Marriage (x1, x2) -> Attr_set.union x1 x2

type trace = (step * Fd_set.t) list

type outcome = Tractable | Hard of Fd_set.t

let run d0 =
  (* Δ − X followed by silent removal of the FDs this made trivial, as in
     the paper's displayed derivations (Example 3.5). *)
  let rec loop d acc =
    if Fd_set.is_empty d then (Tractable, List.rev acc)
    else
      match step d with
      | None -> (Hard d, List.rev acc)
      | Some s ->
        let d' = Fd_set.remove_trivial (Fd_set.minus d (partition s)) in
        loop d' ((s, d') :: acc)
  in
  loop (Fd_set.remove_trivial d0) []

let succeeds d = fst (run d) = Tractable

let pp_step ppf = function
  | Common_lhs a -> Fmt.pf ppf "(common lhs %s)" a
  | Consensus fd -> Fmt.pf ppf "(consensus %a)" Fd.pp fd
  | Marriage (x1, x2) ->
    Fmt.pf ppf "(lhs marriage (%a, %a))" Attr_set.pp x1 Attr_set.pp x2

let pp_trace ppf (d0, trace) =
  Fmt.pf ppf "@[<v>%a@," Fd_set.pp d0;
  let trivial = Fd_set.filter Fd.is_trivial d0 in
  if not (Fd_set.is_empty trivial) then
    Fmt.pf ppf "  (trivial: %a) ⇛ %a@," Fd_set.pp trivial Fd_set.pp
      (Fd_set.remove_trivial d0);
  List.iter
    (fun (step, d) ->
      Fmt.pf ppf "  %a ⇛ %a@," pp_step step Fd_set.pp d)
    trace;
  Fmt.pf ppf "@]"
