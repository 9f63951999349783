(* Data cleaning at (moderate) scale: the human-in-the-loop scenario from
   the paper's introduction. A purchase log integrated from two sources
   carries FDs {product → price, buyer → email}; source A is trusted twice
   as much as source B. We estimate dirtiness with the optimal-repair cost
   (the paper's second motivation) and then clean automatically.

   Run with:  dune exec examples/data_cleaning.exe *)

module R = Repair_core.Repair
open R.Relational
open R.Fd
open R.Workload

let schema =
  Schema.make "Purchase" [ "product"; "price"; "buyer"; "email"; "address" ]

let fds = Fd_set.parse "product -> price; buyer -> email"

let () =
  (* Generate a mostly-clean log and dirty it with 3% cell noise,
     simulating OCR/integration errors; trusted tuples get weight 2. *)
  let rng = Rng.make 2026 in
  let spec =
    { Gen_table.default with n = 400; domain_size = 40; noise = 0.03; zipf_s = 0.8 }
  in
  let t0 = Gen_table.dirty rng schema fds spec in
  let t =
    Table.map_weights t0 (fun i _ -> if i mod 2 = 0 then 2.0 else 1.0)
  in
  Fmt.pr "Log: %d tuples, %d conflicting pairs.@." (Table.size t)
    R.Srepair.Conflict_graph.(n_conflicts (build fds t));

  (* Δ0 = {product → price, buyer → email} decomposes into two
     attribute-disjoint single-FD components: U-repairs are tractable
     (Example 4.2) while S-repairs are APX-complete (Example 3.5 family),
     so the driver solves U exactly and approximates S. *)
  Fmt.pr "@.%s@." (R.Driver.describe fds);

  let u = R.Driver.u_repair fds t in
  Fmt.pr "Update-based cleaning: %g weighted cell fixes (%s).@." u.distance
    u.method_used;
  assert (Fd_set.satisfied_by fds u.result);

  let s = R.Driver.s_repair fds t in
  Fmt.pr "Deletion-based cleaning: %g weighted deletions (%s%s).@."
    s.distance s.method_used
    (if s.optimal then ", optimal" else Fmt.str ", ≤ %g× optimal" s.ratio);
  assert (Fd_set.satisfied_by fds s.result);

  (* A second, larger workload: the embedded hospital provider directory
     (a classic data-cleaning benchmark shape; APX-hard FD set). *)
  let hospital = R.Workload.Datasets.hospital ~n:600 () in
  let he =
    R.Cleaning.Dirtiness.estimate R.Workload.Datasets.hospital_fds hospital
  in
  Fmt.pr "@.Hospital directory (600 rows): %a@." R.Cleaning.Dirtiness.pp he;

  (* Corollary 4.5 in action: dist_sub of the optimal S-repair is at most
     dist_upd of the optimal U-repair. *)
  Fmt.pr
    "@.Dirtiness estimate: at least %g weighted deletions, i.e. at most \
     %.1f%% of total weight %g.@."
    (u.distance /. 2.0 (* ratio bound: s.distance / 2 ≤ opt ≤ u.distance *))
    (100.0 *. s.distance /. Table.total_weight t)
    (Table.total_weight t)
