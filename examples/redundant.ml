(* Loop L3 (Sec. III.C): without redundancy elimination every strategy is
   sequential; eliminating the writes of S1 that are overwritten before
   any live read leaves only the flow dependence (1,0), and the
   minimal-duplicate strategy splits the loop into 4 parallel column
   blocks (Figs. 8-9).

   Run with: dune exec examples/redundant.exe *)

open Cf_dep

let () =
  let nest =
    Cf_loop.Parse.nest
      {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i, j] := A[i-1, j-1] * 3;
    S2: A[i, j-1] := A[i+1, j-2] / 7;
  end
end
|}
  in
  Format.printf "@[<v>Loop L3:@,%a@]@." Cf_loop.Nest.pp nest;

  (* The data reference graph (Fig. 7). *)
  print_string (Cf_report.Figures.reference_graph nest "A");
  print_newline ();

  (* Exact analysis: find the redundant computations. *)
  let exact = Exact.analyze nest in
  Format.printf "%a@." Exact.pp_summary exact;
  Format.printf "N(S1) = {%a} - only the last column of S1 survives@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Cf_linalg.Vec.pp_int)
    (Exact.n_set exact 0);
  Format.printf "useful dependence vectors: {%a}; flow only: {%a}@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Cf_linalg.Vec.pp_int)
    (Exact.dep_vectors (Exact.useful_deps exact) "A")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Cf_linalg.Vec.pp_int)
    (Exact.dep_vectors ~kinds:[ Kind.Flow ] (Exact.useful_deps exact) "A");

  (* Strategy ladder: duplicate alone does not help; elimination does. *)
  List.iter
    (fun strategy ->
      let psi =
        Cf_core.Strategy.partitioning_space ~exact strategy nest
      in
      Format.printf "  %-18s Psi = %-24s parallelism %d@."
        (Cf_core.Strategy.to_string strategy)
        (Format.asprintf "%a" Cf_linalg.Subspace.pp psi)
        (Cf_core.Strategy.parallelism_degree psi))
    Cf_core.Strategy.all;

  (* The minimal-duplicate plan: 4 column blocks (Fig. 9), verified. *)
  let plan =
    Cf_pipeline.Pipeline.plan ~strategy:Cf_core.Strategy.Min_duplicate nest
  in
  print_string
    (Cf_report.Figures.iteration_partition plan.Cf_pipeline.Pipeline.partition);
  let sim = Cf_pipeline.Pipeline.simulate ~procs:4 plan in
  if Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report then
    print_endline
      "OK: after eliminating redundant computations, L3 runs on 4 \
       processors without communication."
  else (print_endline "FAILED"; exit 1)
