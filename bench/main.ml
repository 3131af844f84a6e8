(* Regenerates every table and figure of the paper's evaluation and then
   micro-benchmarks each analysis pipeline (one Bechamel test per
   table/figure).  Output order follows DESIGN.md's per-experiment
   index E1..E10. *)

open Bechamel
open Toolkit
open Cf_loop
open Cf_core
open Cf_report

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let l1 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[2*i, j] := C[i, j] * 7;
    S2: B[j, i+1] := A[2*i-2, j-1] + C[i-1, j-1];
  end
end
|}

let l2 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i+j, i+j] := B[2*i, j] * A[i+j-1, i+j];
    S2: A[i+j-1, i+j-1] := B[2*i-1, j-1] / 3;
  end
end
|}

let l3 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i, j] := A[i-1, j-1] * 3;
    S2: A[i, j-1] := A[i+1, j-2] / 7;
  end
end
|}

let l4 =
  Parse.nest
    {|
for i1 = 1 to 4
  for i2 = 1 to 4
    for i3 = 1 to 4
      A[i1, i2, i3] := A[i1-1, i2+1, i3-1] + B[i1, i2, i3];
    end
  end
end
|}

let l4_parloop () =
  let psi = Strategy.partitioning_space Strategy.Nonduplicate l4 in
  Cf_transform.Transformer.transform ~basis:[ [| 1; 1; 0 |]; [| -1; 0; 1 |] ]
    l4 psi

let print_figures () =
  section "E1 / Fig. 1 - data spaces and data-referenced vectors (L1)";
  List.iter (fun a -> print_string (Figures.data_space l1 a)) [ "A"; "B"; "C" ];
  let psi1 = Strategy.partitioning_space Strategy.Nonduplicate l1 in
  let p1 = Iter_partition.make l1 psi1 in
  section "E2 / Fig. 2 - data partitions of L1";
  List.iter (fun a -> print_string (Figures.data_partition l1 p1 a))
    [ "A"; "B"; "C" ];
  section "E3 / Fig. 3 - iteration partition of L1";
  print_string (Figures.iteration_partition p1);
  section "E4 / Figs. 4-5 - duplicate-data partition of L2";
  let p2 = Iter_partition.make l2 (Cf_linalg.Subspace.zero 2) in
  List.iter (fun a -> print_string (Figures.data_partition l2 p2 a)) [ "A"; "B" ];
  print_string (Figures.iteration_partition p2);
  section "E5 / Figs. 6-7 - data reference graph of L3";
  print_string (Figures.reference_graph l3 "A");
  print_newline ();
  section "E6 / Figs. 8-9 - L3 after redundancy elimination (Thm 4)";
  let exact3 = Cf_dep.Exact.analyze l3 in
  Format.printf "%a@." Cf_dep.Exact.pp_summary exact3;
  Format.printf "N(S1) = {%a}@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Cf_linalg.Vec.pp_int)
    (Cf_dep.Exact.n_set exact3 0);
  let psi3 =
    Strategy.partitioning_space ~exact:exact3 Strategy.Min_duplicate l3
  in
  let p3 = Iter_partition.make l3 psi3 in
  print_string (Figures.data_partition l3 p3 "A");
  print_string (Figures.iteration_partition p3);
  section "E7 / Fig. 10 - transformed loop L4' and processor assignment";
  let pl = l4_parloop () in
  Format.printf "%a@." Cf_transform.Parloop.pp pl;
  print_string (Figures.assignment_grid pl ~grid:[| 2; 2 |])

let print_tables () =
  section "E8 / Table I - execution time of L5, L5', L5''";
  print_string (Tables.table1 ());
  Printf.printf "max relative error vs paper: %.1f%%\n"
    (100. *. Tables.max_relative_error ());
  section "E9 / Table II - speedup of L5' and L5''";
  print_string (Tables.table2 ());
  section "E8b - simulator validation (small instances, real execution)";
  List.iter
    (fun (variant, p) ->
      let r = Cf_exec.Matmul.simulate variant ~m:8 ~p in
      Printf.printf
        "%-4s p=%-2d m=8: communication-free=%b correct=%b makespan=%.6fs (dist %.6fs)\n"
        (Cf_exec.Matmul.variant_name variant)
        p
        (r.Cf_exec.Matmul.report.Cf_exec.Parexec.remote_access = None)
        (Cf_exec.Parexec.ok r.Cf_exec.Matmul.report)
        r.Cf_exec.Matmul.makespan r.Cf_exec.Matmul.distribution_time)
    [ (Cf_exec.Matmul.Sequential, 1); (Cf_exec.Matmul.Dup_b, 4);
      (Cf_exec.Matmul.Dup_ab, 4); (Cf_exec.Matmul.Dup_b, 16);
      (Cf_exec.Matmul.Dup_ab, 16) ]

let print_ablation () =
  section "E10 - ablation: strategy vs parallelism across the paper's loops";
  Printf.printf "%-6s %-18s %-6s %-8s %-10s %s\n" "loop" "strategy" "dim"
    "blocks" "max-block" "comm-free";
  List.iter
    (fun (name, nest) ->
      List.iter
        (fun strategy ->
          let exact =
            if Strategy.uses_exact_analysis strategy then
              Some (Cf_dep.Exact.analyze nest)
            else None
          in
          let psi = Strategy.partitioning_space ?exact strategy nest in
          let p = Iter_partition.make nest psi in
          let free = Verify.communication_free ?exact strategy p in
          Printf.printf "%-6s %-18s %-6d %-8d %-10d %b\n" name
            (Strategy.to_string strategy)
            (Cf_linalg.Subspace.dim psi)
            (Iter_partition.block_count p)
            (Iter_partition.max_block_size p)
            free)
        Strategy.all)
    [ ("L1", l1); ("L2", l2); ("L3", l3); ("L4", l4);
      ("L5(8)", Cf_exec.Matmul.nest ~m:8) ]

let print_commcost () =
  section
    "E11 - communication cost: naive outer-slab partition vs communication-free";
  Printf.printf "%-12s %-22s %12s %14s %14s\n" "loop" "partition" "flow pairs"
    "remote reads" "remote values";
  let row name nest =
    let exact = Cf_dep.Exact.analyze nest in
    let slab = Cf_exec.Commcost.outer_slab_partition nest in
    let nblocks = Iter_partition.block_count slab in
    let slab_cost =
      Cf_exec.Commcost.measure ~exact
        ~placement:(Cf_exec.Parexec.cyclic ~nprocs:nblocks)
        slab
    in
    Printf.printf "%-12s %-22s %12d %14d %14d\n" name "outer slabs"
      slab_cost.Cf_exec.Commcost.total_flow_pairs
      slab_cost.Cf_exec.Commcost.remote_reads
      slab_cost.Cf_exec.Commcost.remote_values;
    let psi = Strategy.partitioning_space ~exact Strategy.Duplicate nest in
    let free = Iter_partition.make nest psi in
    let free_cost =
      Cf_exec.Commcost.measure ~exact
        ~placement:
          (Cf_exec.Parexec.cyclic
             ~nprocs:(max 1 (Iter_partition.block_count free)))
        free
    in
    Printf.printf "%-12s %-22s %12d %14d %14d\n" name
      "comm-free (duplicate)" free_cost.Cf_exec.Commcost.total_flow_pairs
      free_cost.Cf_exec.Commcost.remote_reads
      free_cost.Cf_exec.Commcost.remote_values
  in
  row "L1" l1;
  row "L4" l4;
  List.iter
    (fun k ->
      row k.Cf_workloads.Workloads.name (k.Cf_workloads.Workloads.build ~size:6))
    [ Cf_workloads.Workloads.convolution; Cf_workloads.Workloads.dft;
      Cf_workloads.Workloads.sor ]

let print_advisor () =
  section "E12 - duplication advisor on L5 (which arrays to replicate)";
  List.iter
    (fun m ->
      Printf.printf "m=%d, p=16:\n" m;
      List.iteri
        (fun k c ->
          if k < 3 then
            Format.printf "  %d. %a@." (k + 1) Cf_exec.Advisor.pp_candidate c)
        (Cf_exec.Advisor.candidates ~procs:16 (Cf_exec.Matmul.nest ~m)))
    [ 6; 12; 16 ];
  print_endline
    "(crossover: replicating both inputs - the L5'' choice - wins once \
     compute amortizes the startup messages)"

let print_distribution () =
  section
    "E13 - full makespan (distribution + compute) across the workload kernels";
  Printf.printf "%-12s %6s %6s %14s %14s %10s\n" "kernel" "size" "p"
    "makespan (s)" "dist (s)" "balance";
  List.iter
    (fun k ->
      let nest = k.Cf_workloads.Workloads.build ~size:6 in
      List.iter
        (fun procs ->
          let plan =
            Cf_pipeline.Pipeline.plan ~strategy:Strategy.Duplicate nest
          in
          let sim =
            Cf_pipeline.Pipeline.simulate ~procs ~with_distribution:true plan
          in
          let machine = sim.Cf_pipeline.Pipeline.report.Cf_exec.Parexec.machine in
          Printf.printf "%-12s %6d %6d %14.6f %14.6f %10.3f\n"
            k.Cf_workloads.Workloads.name 6 procs
            sim.Cf_pipeline.Pipeline.makespan
            (Cf_machine.Machine.distribution_time machine)
            sim.Cf_pipeline.Pipeline.balance.Cf_exec.Balance.imbalance)
        [ 2; 4 ])
    [ Cf_workloads.Workloads.convolution; Cf_workloads.Workloads.dft;
      Cf_workloads.Workloads.stencil_2d; Cf_workloads.Workloads.rank1_update;
      Cf_workloads.Workloads.shifted_sum ]

(* One Bechamel test per experiment: each measures the full pipeline that
   regenerates the corresponding artifact. *)
let tests =
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"comfree"
    [
      t "fig1:data-space" (fun () -> Figures.data_space l1 "A");
      t "fig2:data-partition" (fun () ->
          let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
          let p = Iter_partition.make l1 psi in
          Data_partition.make l1 p "A");
      t "fig3:iter-partition" (fun () ->
          let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
          Iter_partition.make l1 psi);
      t "fig4_5:duplicate-partition" (fun () ->
          let psi = Strategy.partitioning_space Strategy.Duplicate l2 in
          Iter_partition.make l2 psi);
      t "fig6_7:reference-graph" (fun () -> Cf_dep.Graph.build l3 "A");
      t "fig8_9:redundancy-elimination" (fun () -> Cf_dep.Exact.analyze l3);
      t "fig10:transform-assign" (fun () ->
          let pl = l4_parloop () in
          Cf_exec.Assign.parloop_counts pl ~grid:[| 2; 2 |]);
      t "table1:cost-model-sweep" (fun () ->
          List.iter
            (fun (v, p) ->
              List.iter
                (fun m ->
                  ignore
                    (Cf_exec.Matmul.analytic_time Cf_machine.Cost.transputer v
                       ~m ~p))
                Tables.problem_sizes)
            Tables.rows);
      t "table2:simulated-matmul" (fun () ->
          Cf_exec.Matmul.simulate Cf_exec.Matmul.Dup_ab ~m:8 ~p:4);
      t "ablation:four-strategies-L3" (fun () ->
          List.map (fun s -> Strategy.partitioning_space s l3) Strategy.all);
      t "commcost:outer-slabs-L4" (fun () ->
          let slab = Cf_exec.Commcost.outer_slab_partition l4 in
          Cf_exec.Commcost.measure
            ~placement:(Cf_exec.Parexec.cyclic ~nprocs:4)
            slab);
      t "advisor:matmul-m6" (fun () ->
          Cf_exec.Advisor.candidates ~procs:16 (Cf_exec.Matmul.nest ~m:6));
      t "scalability:symbolic-analysis-m32" (fun () ->
          Strategy.partitioning_space Strategy.Duplicate
            (Cf_exec.Matmul.nest ~m:32));
      t "scalability:exact-analysis-m10" (fun () ->
          Cf_dep.Exact.analyze (Cf_exec.Matmul.nest ~m:10));
    ]

let run_benchmarks () =
  section "micro-benchmarks (Bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "%-45s (no estimate)\n" name
      else if ns > 1e6 then
        Printf.printf "%-45s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "%-45s %10.1f ns/run\n" name ns)
    rows

(* {1 Extension experiments}

   Each experiment returns one [report]: header fields, named groups of
   rows (each row a JSON object), the fields that identify a row, the
   gated keys — values reproducible bit-for-bit from the seed on any
   host, so [cfalloc bench-diff] fails on any change to one — and a pass
   verdict.  [run_entry] prints, writes and judges every report the same
   way; the [registry] at the end maps each command-line flag to its
   experiment and report file. *)

module J = Cf_obs.Json
module W = Cf_workloads.Workloads
module Machine = Cf_machine.Machine
module Parexec = Cf_exec.Parexec

type report = {
  tag : string;  (** the report's ["bench"] field *)
  header : (string * J.t) list;
  groups : (string * J.t list) list;
  row_key : string list;
  gated : string list;
  ok : bool;
}

type entry = {
  flag : string;
  file : string;
  title : string;
  run : quick:bool -> report;
}

let int n = J.Num (float_of_int n)
let num x = J.Num x
let str s = J.Str s
let bool b = J.Bool b
let opt f = function Some x -> f x | None -> J.Null

(* A numeric field of a row ([nan] when absent). *)
let field key row =
  Option.value (Option.bind (J.member key row) J.num) ~default:Float.nan

let all_true key rows =
  List.for_all (fun r -> J.member key r = Some (J.Bool true)) rows

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best of two runs: single-core wall-clock here is noisy (GC, host
   jitter), and the minimum is the standard robust estimator. *)
let time2 f =
  let r, t1 = time f in
  let _, t2 = time f in
  (r, Float.min t1 t2)

(* The 16-PE transputer mesh every engine experiment runs on. *)
let procs = 16
let placement = Parexec.cyclic ~nprocs:procs

let mesh_machine ?faults ?obs () =
  Machine.create ?faults ?obs
    (Cf_machine.Topology.mesh [| 4; 4 |])
    Cf_machine.Cost.transputer

let domains_available = Domain.recommended_domain_count ()
let domains_used = max 1 (min domains_available procs)
let dup nest = Strategy.partitioning_space Strategy.Duplicate nest

(* stencil3d is partitioned along its diagonal. *)
let diag3 _ =
  Cf_linalg.Subspace.span 3 [ Cf_linalg.Vec.of_int_list [ 1; 1; 1 ] ]

(* E14: the scale-out execution engine.  Each row times the complete
   simulation — partition construction plus communication-free
   execution (validation off: both executors then measure pure
   simulated execution throughput) — under three configurations: the
   reference executor of cf_check over the materialized Refpartition
   (baseline), the engine over the closed-form Coset index on one
   domain, and the same fanned out over all domains.  Large
   instances skip the baseline (materializing 128³-class partitions is
   exactly what the indexed engine exists to avoid). *)

let scale_row ~with_baseline ~workload ~psi_label ~size build psi_of =
  let nest = build ~size in
  let psi = psi_of nest in
  let strategy = Strategy.Duplicate in
  let baseline_s =
    if not with_baseline then None
    else
      let (), s =
        time2 (fun () ->
            let machine = mesh_machine () in
            let partition = Iter_partition.make nest psi in
            ignore
              (Cf_check.Refexec.execute ~validate:false ~machine ~placement
                 ~strategy partition))
      in
      Some s
  in
  let coset, seq_s =
    time2 (fun () ->
        let machine = mesh_machine () in
        let coset = Coset.make nest psi in
        ignore
          (Parexec.execute_indexed ~validate:false ~domains:1 ~machine
             ~placement ~strategy coset);
        coset)
  in
  let machine, par_s =
    time2 (fun () ->
        let machine = mesh_machine () in
        ignore
          (Parexec.execute_indexed ~validate:false ~domains:domains_used
             ~machine ~placement ~strategy coset);
        machine)
  in
  let iterations = Nest.cardinal nest in
  let max_block =
    List.fold_left
      (fun acc (b : Coset.block) -> max acc b.Coset.size)
      0 (Coset.blocks coset)
  in
  J.Obj
    [ ("workload", str workload); ("psi", str psi_label); ("size", int size);
      ("iterations", int iterations);
      ("blocks", int (Coset.block_count coset));
      ("max_block", int max_block); ("procs", int procs);
      ("domains", int domains_used); ("baseline_s", opt num baseline_s);
      ("indexed_seq_s", num seq_s); ("indexed_par_s", num par_s);
      ("speedup_vs_baseline", opt (fun b -> num (b /. seq_s)) baseline_s);
      ("parallel_speedup", num (seq_s /. par_s));
      ("iterations_per_sec", num (float_of_int iterations /. par_s));
      ("makespan_s", num (Machine.makespan machine)) ]

(* One validated cross-check: identical reports from the reference
   executor and the engine.  Returns (both ok, reports identical). *)
let cross_check () =
  let nest = Cf_exec.Matmul.nest ~m:12 in
  let psi = dup nest in
  let strategy = Strategy.Duplicate in
  let mb = mesh_machine () and mi = mesh_machine () in
  let base =
    Cf_check.Refexec.execute ~machine:mb ~placement ~strategy
      (Iter_partition.make nest psi)
  in
  let indexed =
    Parexec.execute_indexed ~machine:mi ~placement ~strategy
      (Coset.make nest psi)
  in
  ( Parexec.ok base && Parexec.ok indexed,
    base.Parexec.remote_access = indexed.Parexec.remote_access
    && base.Parexec.mismatches = indexed.Parexec.mismatches
    && base.Parexec.per_pe_iterations = indexed.Parexec.per_pe_iterations
    && Machine.max_compute_time mb = Machine.max_compute_time mi )

(* E19: compiled vs interpreted statement kernels, execution only.
   Data is pre-placed under plain array names once — the same surface
   the allocator would build, minus the per-block copy suffix — and
   each backend then re-runs only the block loop ([~allocate:false
   ~validate:false], stats reset between runs).  Partition
   construction, allocation and the sequential golden run are all
   outside the timing, so the ratio isolates the statement-body
   engines: closure-specialized kernels vs the per-iteration AST walk.
   The crossover sweep runs the compiled backend on 1 vs all
   recommended domains across sizes to locate where domain fan-out
   starts paying; on a single-CPU host it cannot, and the header's
   [crossover_at] records that honestly as null. *)

(* Every element any site of any block touches, stored on the block's
   owner — exactly the allocator's surface, under plain names. *)
let pre_place machine nest coset =
  let prog = Cf_exec.Compile.make nest in
  let stmts = Cf_exec.Compile.stmts prog in
  let arrays = Cf_exec.Compile.arrays prog in
  List.iter
    (fun (b : Coset.block) ->
      let pe = placement b.Coset.id in
      Coset.iter_block ~reuse:true coset ~id:b.Coset.id (fun iter ->
          Array.iter
            (fun (ss : Cf_exec.Compile.stmt_sites) ->
              let place (site : Cf_exec.Compile.Site.t) =
                let el = Cf_exec.Compile.Site.eval site iter in
                let name = arrays.(site.Cf_exec.Compile.Site.slot) in
                if not (Machine.holds machine ~pe name el) then
                  Machine.store machine ~pe name el
                    (Cf_exec.Seqexec.default_init name el)
              in
              place ss.Cf_exec.Compile.lhs;
              Array.iter place ss.Cf_exec.Compile.reads)
            stmts))
    (Coset.blocks coset);
  Machine.compact machine

(* A sampler of execution-only seconds per run: each sample repeats
   the run enough times (calibrated once, after a warm-up) to fill
   ~0.2s, so single runs too fast for the clock still resolve. *)
let exec_sampler ~backend ~domains machine coset =
  let run () =
    Machine.reset_stats machine;
    ignore
      (Parexec.execute_indexed ~backend ~allocate:false ~validate:false
         ~domains ~machine ~placement ~strategy:Strategy.Duplicate coset)
  in
  run ();
  let _, once = time run in
  let reps = max 1 (int_of_float (0.2 /. Float.max 1e-6 once)) in
  fun () ->
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            run ()
          done)
    in
    t /. float_of_int reps

(* Best of two samples. *)
let exec_time ~backend ~domains machine coset =
  let sample = exec_sampler ~backend ~domains machine coset in
  let a = sample () in
  Float.min a (sample ())

let placed nest psi_of =
  let coset = Coset.make nest (psi_of nest) in
  let machine = mesh_machine () in
  pre_place machine nest coset;
  (machine, coset)

(* Each backend's time is the minimum of five samples, taken in
   alternating order (interpreted first, then compiled first, ...) as
   [obs_row] does, so host drift lands on both sides; [speedup] is the
   ratio of the two minima.  A single sample moves by up to 1.5x
   between runs on a shared host. *)
let backend_row ~workload ~size build psi_of =
  let nest = build ~size in
  let machine, coset = placed nest psi_of in
  let si = exec_sampler ~backend:`Interpreted ~domains:1 machine coset in
  let sc = exec_sampler ~backend:`Compiled ~domains:1 machine coset in
  let interp = ref infinity and compiled = ref infinity in
  for i = 1 to 5 do
    let take sample best = best := Float.min !best (sample ()) in
    if i mod 2 = 1 then begin
      take si interp;
      take sc compiled
    end
    else begin
      take sc compiled;
      take si interp
    end
  done;
  let interp = !interp and compiled = !compiled in
  let iterations = Nest.cardinal nest in
  let per_sec t = num (float_of_int iterations /. t) in
  J.Obj
    [ ("workload", str workload); ("size", int size);
      ("iterations", int iterations);
      ("blocks", int (Coset.block_count coset));
      ("interpreted_s", num interp); ("compiled_s", num compiled);
      ("interpreted_iters_per_sec", per_sec interp);
      ("compiled_iters_per_sec", per_sec compiled);
      ("speedup", num (interp /. compiled)) ]

let crossover_row size =
  let nest = W.matmul.W.build ~size in
  let machine, coset = placed nest dup in
  let seq = exec_time ~backend:`Compiled ~domains:1 machine coset in
  let par = exec_time ~backend:`Compiled ~domains:domains_used machine coset in
  J.Obj
    [ ("name", str "matmul-compiled"); ("size", int size);
      ("iterations", int (Nest.cardinal nest)); ("domains", int domains_used);
      ("seq_s", num seq); ("par_s", num par); ("ratio", num (seq /. par)) ]

let parexec ~quick =
  let mm = ("matmul", "dup", W.matmul.W.build, dup)
  and st = ("stencil3d", "span(1,1,1)", W.stencil_3d.W.build, diag3) in
  let scale ?(with_baseline = true) (workload, psi_label, build, psi_of) size =
    scale_row ~with_baseline ~workload ~psi_label ~size build psi_of
  in
  let backend (workload, _, build, psi_of) size =
    backend_row ~workload ~size build psi_of
  in
  let rows =
    if quick then [ scale mm 16; scale st 12 ]
    else
      [ scale mm 64; scale st 64; scale ~with_baseline:false mm 128;
        scale ~with_baseline:false st 128 ]
  in
  let ok, identical = cross_check () in
  let backends =
    if quick then [ backend mm 16; backend st 12 ]
    else [ backend mm 64; backend st 48 ]
  in
  let crossover =
    List.map crossover_row (if quick then [ 8; 12; 16 ] else [ 16; 32; 48 ])
  in
  {
    tag = "parexec-scale";
    header =
      [ ("domains_available", int domains_available);
        ( "crossover_at",
          Option.value ~default:J.Null
            (List.find_map
               (fun r ->
                 if field "ratio" r > 1.0 then J.member "size" r else None)
               crossover) );
        ("cross_check_ok", bool ok); ("reports_identical", bool identical) ];
    groups =
      [ ("rows", rows); ("backend_rows", backends); ("crossover", crossover) ];
    row_key = [ "workload"; "name"; "size" ];
    gated =
      [ "iterations"; "blocks"; "max_block"; "procs"; "makespan_s";
        "cross_check_ok"; "reports_identical" ];
    ok = ok && identical;
  }

(* E15: the concurrent planning service.  Throughput of a mixed planning
   workload through the worker pool at 1/2/4 domains with the
   canonical-form cache on vs off, plus the warm-hit vs cold-plan
   latency ratio.  The workload mixes the paper loops, the workload
   kernels and renamed copies of each — renamings are exactly what the
   canonicalizer collapses, so the cache-on rows show the memoization
   win while cache-off rows measure raw planning throughput.  On a
   single-CPU host the multi-domain rows cannot speed up (the field
   [domains_available] records what the runtime offered); the rows still
   exercise the concurrent paths and become meaningful on real cores. *)

let service_nests ~quick =
  let base =
    [ l1; l2; l3; l4; Cf_exec.Matmul.nest ~m:(if quick then 4 else 8) ]
    @ List.map
        (fun k -> k.W.build ~size:(if quick then 4 else 8))
        W.all
  in
  (* Renamed copies: structurally identical, textually distinct. *)
  let copies = if quick then 2 else 6 in
  List.concat_map
    (fun nest ->
      nest
      :: List.init copies (fun k ->
             let salt = Printf.sprintf "v%d" k in
             Cf_cache.Canon.rename
               ~index:(fun v -> v ^ "_" ^ salt)
               ~array:(fun a -> a ^ "_" ^ salt)
               ~scalar:(fun s -> s ^ "_" ^ salt)
               ~label:(fun i _ -> Printf.sprintf "R%d_%s" i salt)
               nest))
    base

let service_row ~domains ~cache nests =
  let module S = Cf_service.Service in
  let svc =
    S.create ~domains ~queue_depth:64
      ~cache:(if cache then Some 1024 else None)
      ()
  in
  let (), elapsed =
    time (fun () ->
        List.iter
          (fun strategy ->
            List.iter
              (function
                | S.Done _ -> ()
                | o ->
                  failwith
                    (Format.asprintf "service request failed: %a" S.pp_outcome
                       o))
              (S.plan_many ~strategy svc nests))
          [ Strategy.Nonduplicate; Strategy.Duplicate; Strategy.Min_duplicate ])
  in
  let s = S.stats svc in
  S.shutdown svc;
  let lat = s.S.latency in
  J.Obj
    [ ("domains", int domains); ("cache", bool cache);
      ("requests", int s.S.submitted); ("completed", int s.S.completed);
      ("elapsed_s", num elapsed);
      ("throughput_per_s", num (float_of_int s.S.completed /. elapsed));
      ("p50_s", num lat.Cf_obs.Histogram.p50);
      ("p95_s", num lat.Cf_obs.Histogram.p95);
      ("p99_s", num lat.Cf_obs.Histogram.p99);
      ( "cache_hit_rate",
        opt (fun c -> num (Cf_cache.Memo.hit_rate c)) s.S.cache ) ]

(* Warm-hit vs cold-plan latency on one heavyweight request: the cache
   should answer at least an order of magnitude faster than planning. *)
let service_hit_speedup ~quick =
  let nest = Cf_exec.Matmul.nest ~m:(if quick then 6 else 10) in
  let strategy = Strategy.Min_duplicate in
  let planner = Cf_service.Planner.create () in
  let _, cold =
    time (fun () -> Cf_service.Planner.plan ~strategy planner nest)
  in
  let _, warm =
    time2 (fun () -> Cf_service.Planner.plan ~strategy planner nest)
  in
  (cold, warm)

(* The service must answer exactly what a sequential plan would. *)
let service_identity_check () =
  let module S = Cf_service.Service in
  let svc = S.create ~domains:2 () in
  let nests = [ l1; l2; l3; l4 ] in
  let ok =
    List.for_all
      (fun strategy ->
        List.for_all2
          (fun nest o ->
            match o with
            | S.Done c ->
              Format.asprintf "%a" Cf_pipeline.Pipeline.describe c.S.plan
              = Format.asprintf "%a" Cf_pipeline.Pipeline.describe
                  (Cf_pipeline.Pipeline.plan ~strategy nest)
            | _ -> false)
          nests
          (S.plan_many ~strategy svc nests))
      Strategy.all
  in
  S.shutdown svc;
  ok

let service ~quick =
  let nests = service_nests ~quick in
  let rows =
    List.concat_map
      (fun domains ->
        [ service_row ~domains ~cache:false nests;
          service_row ~domains ~cache:true nests ])
      [ 1; 2; 4 ]
  in
  let cold, warm = service_hit_speedup ~quick in
  let identical = service_identity_check () in
  {
    tag = "planning-service";
    header =
      [ ("domains_available", int domains_available); ("cold_plan_s", num cold);
        ("warm_hit_s", num warm); ("hit_speedup", num (cold /. warm));
        ("identity_vs_sequential", bool identical) ];
    groups = [ ("rows", rows) ];
    row_key = [ "domains"; "cache" ];
    gated =
      [ "requests"; "completed"; "cache_hit_rate"; "identity_vs_sequential" ];
    ok = identical;
  }

(* E16: fault injection and recovery.  The same workload runs fault-free
   and under fault plans killing 0/1/2/4 of the 16 PEs a few iterations
   in (plus mild link drop/corruption), all with charged distribution.
   Makespans are simulated time, so every number here is deterministic;
   the recovery overhead is the faulted makespan over the fault-free
   one.  Both runs validate against the sequential golden execution, so
   [identical] certifies the recovered result is bit-for-bit the
   fault-free answer. *)

let fault_plan kills =
  Cf_fault.Fault.make ~procs
    {
      Cf_fault.Fault.none with
      seed = 7;
      kills;
      drop_rate = 0.02;
      corrupt_rate = 0.01;
    }

let fault_run ?faults ?checkpoint_every ?checkpoint_mode coset =
  let machine = mesh_machine ?faults () in
  let r =
    Parexec.execute_indexed ~charge_distribution:true ?checkpoint_every
      ?checkpoint_mode ~machine ~placement ~strategy:Strategy.Duplicate coset
  in
  (r, machine)

let fault_rows ~workload ~size coset =
  let base, base_machine = fault_run coset in
  let base_mk = Machine.makespan base_machine in
  List.map
    (fun kills ->
      let r, machine =
        fault_run
          ~faults:(fault_plan (List.init kills (fun i -> (i, 4 + i))))
          coset
      in
      let rc = Option.get r.Parexec.recovery in
      let mk = Machine.makespan machine in
      J.Obj
        [ ("workload", str workload); ("size", int size); ("kills", int kills);
          ("crashed", int (List.length rc.Parexec.crashed_pes));
          ("rounds", int rc.Parexec.rounds);
          ("replayed_blocks", int rc.Parexec.replayed_blocks);
          ("redistributed_words", int rc.Parexec.redistributed_words);
          ("retries", int (Machine.retries machine));
          ("makespan_ok_s", num base_mk); ("makespan_fault_s", num mk);
          ("overhead", num (mk /. base_mk));
          ("identical", bool (Parexec.ok base && Parexec.ok r)) ])
    [ 0; 1; 2; 4 ]

(* E23: checkpoint overhead vs write rate and cadence.  The same two
   workloads run under a fixed two-kill fault plan while the recovery
   checkpoint is refreshed every 0/1/2/4 rounds, once with journaled
   delta captures and once with full deep copies as the reference.
   [checkpoint_words] is the deterministic total payload captured across
   the run — the delta rows must stay at O(writes): per-round delta
   checkpointing in total may cost no more than the single
   post-distribution full copy the engine always paid before.
   [ckpt_rows] returns whether the delta captures kept to that budget,
   and the rows. *)

let ckpt_rows ~workload ~size coset =
  let runs =
    List.map
      (fun (every, mode) ->
        let r, _ =
          fault_run
            ~faults:(fault_plan [ (0, 4); (1, 5) ])
            ~checkpoint_every:every ~checkpoint_mode:mode coset
        in
        let rc = Option.get r.Parexec.recovery in
        ( rc.Parexec.checkpoint_words,
          J.Obj
            [ ("workload", str workload); ("size", int size);
              ("checkpoint_every", int every);
              ( "mode",
                str (match mode with `Delta -> "delta" | `Full -> "full") );
              ("checkpoints", int rc.Parexec.checkpoints);
              ("checkpoint_words", int rc.Parexec.checkpoint_words);
              ("rounds", int rc.Parexec.rounds);
              ("redistributed_words", int rc.Parexec.redistributed_words);
              ("identical", bool (Parexec.ok r)) ] ))
      [ (0, `Delta); (1, `Delta); (2, `Delta); (4, `Delta); (0, `Full);
        (1, `Full) ]
  in
  let words i = fst (List.nth runs i) in
  let delta0, delta1, full0, full1 = (words 0, words 1, words 4, words 5) in
  (* Per-round delta checkpointing in total must not exceed the old
     single post-distribution full copy; the mandatory
     post-distribution checkpoint must ride the compactor's donated
     base, under 10% of the deep copy it replaces; and refreshing every
     round must stay cheaper than deep copies at the same cadence. *)
  ( delta1 <= full0
    && float_of_int delta0 < 0.10 *. float_of_int full0
    && delta1 < full1,
    List.map snd runs )

let faults ~quick =
  let cosets =
    List.map
      (fun (workload, size, build, psi_of) ->
        let nest = build ~size in
        (workload, size, Coset.make nest (psi_of nest)))
      [ ("matmul", (if quick then 8 else 16), W.matmul.W.build, dup);
        ("stencil3d", (if quick then 8 else 12), W.stencil_3d.W.build, diag3) ]
  in
  let rows =
    List.concat_map
      (fun (workload, size, coset) -> fault_rows ~workload ~size coset)
      cosets
  in
  let ckpts =
    List.map
      (fun (workload, size, coset) -> ckpt_rows ~workload ~size coset)
      cosets
  in
  let budget_ok = List.for_all fst ckpts and ckpt = List.concat_map snd ckpts in
  {
    tag = "fault-recovery";
    header = [ ("procs", int procs); ("checkpoint_budget_ok", bool budget_ok) ];
    groups = [ ("rows", rows); ("checkpoint_rows", ckpt) ];
    row_key = [ "workload"; "size"; "kills"; "checkpoint_every"; "mode" ];
    gated =
      [ "crashed"; "rounds"; "replayed_blocks"; "redistributed_words";
        "retries"; "makespan_ok_s"; "makespan_fault_s"; "overhead";
        "identical"; "checkpoints"; "checkpoint_words";
        "checkpoint_budget_ok" ];
    ok = all_true "identical" rows && all_true "identical" ckpt && budget_ok;
  }

(* E17: observability overhead.  The instrumentation in Machine and
   Parexec is compiled in permanently and guarded by one
   [Trace.enabled] branch, so there is no uninstrumented build to
   measure against.  Instead two identical null-sink runs are
   interleaved (best-of-3 each); their relative difference bounds the
   disabled-trace overhead plus measurement noise, and must stay under
   2%.  A ring-sink run and a Chrome export are timed alongside to
   record what actually collecting and exporting a trace costs. *)

let obs_row ~workload ~size build psi_of =
  let nest = build ~size in
  let coset = Coset.make nest (psi_of nest) in
  let run ~obs () =
    ignore
      (Parexec.execute_indexed ~validate:false ~domains:1
         ~charge_distribution:true ~machine:(mesh_machine ~obs ()) ~placement
         ~strategy:Strategy.Duplicate coset)
  in
  (* Each timed sample repeats the run until it is long enough
     (~100ms) for a sub-2% resolution; samples alternate A/B and
     B/A order so clock drift cancels, and each side keeps its
     minimum. *)
  run ~obs:Cf_obs.Trace.null ();
  let _, once = time (run ~obs:Cf_obs.Trace.null) in
  let reps = max 1 (int_of_float (0.25 /. Float.max 1e-6 once)) in
  let sample obs () =
    time (fun () ->
        for _ = 1 to reps do
          run ~obs ()
        done)
    |> snd
  in
  let a = sample Cf_obs.Trace.null and b = sample Cf_obs.Trace.null in
  let best_a = ref infinity and best_b = ref infinity in
  let measure () =
    let r_ab = ref [] and r_ba = ref [] in
    Gc.compact ();
    for i = 1 to 10 do
      (* Back-to-back pairs in alternating order.  Within a pair the
         second half runs on a warmer heap, so the raw ratio tb/ta is
         (1+overhead)*(1+drift) when A runs first and
         (1+overhead)/(1+drift) when B does; the geometric mean of
         the two per-order medians cancels the drift term exactly. *)
      let ab = i mod 2 = 0 in
      let first, second = if ab then (a, b) else (b, a) in
      Gc.major ();
      let t1 = first () in
      let t2 = second () in
      let ta, tb = if ab then (t1, t2) else (t2, t1) in
      let bucket = if ab then r_ab else r_ba in
      bucket := (tb /. ta) :: !bucket;
      best_a := Float.min !best_a (ta /. float_of_int reps);
      best_b := Float.min !best_b (tb /. float_of_int reps)
    done;
    let median l =
      let sorted = List.sort compare l in
      let n = List.length sorted in
      (List.nth sorted ((n - 1) / 2) +. List.nth sorted (n / 2)) /. 2.
    in
    (* Two independent robust estimators: the drift-cancelled median
       ratio, and the ratio of per-side minima.  A and B execute
       identical code, so the true difference is zero and any
       positive reading is the noise floor — keep the smaller
       bound. *)
    let est = Float.sqrt (median !r_ab *. median !r_ba) in
    let est_min = !best_b /. !best_a in
    let pct r = 100. *. Float.abs (r -. 1.) in
    Float.min (pct est) (pct est_min)
  in
  (* A sustained host-level shift (CPU migration, frequency change)
     occasionally poisons a whole measurement; retry up to twice and
     keep the tightest bound seen. *)
  let overhead = ref (measure ()) in
  let attempts = ref 1 in
  while !overhead >= 2.0 && !attempts < 3 do
    incr attempts;
    overhead := Float.min !overhead (measure ())
  done;
  let trace = Cf_obs.Trace.make (Cf_obs.Trace.ring ~capacity:(1 lsl 18)) in
  let _, ring_s = time (run ~obs:trace) in
  let events = Cf_obs.Trace.events trace in
  let chrome, export_s = time (fun () -> Cf_obs.Trace.to_chrome events) in
  J.Obj
    [ ("workload", str workload); ("size", int size);
      ("null_a_s", num !best_a); ("null_b_s", num !best_b);
      ("null_overhead_pct", num !overhead); ("ring_s", num ring_s);
      ("events", int (List.length events));
      ("dropped", int (Cf_obs.Trace.dropped trace));
      ("chrome_export_s", num export_s);
      ("chrome_bytes", int (String.length chrome));
      ("pass", bool (!overhead < 2.0)) ]

let obs ~quick =
  let rows =
    [ obs_row ~workload:"matmul"
        ~size:(if quick then 12 else 32)
        W.matmul.W.build dup;
      obs_row ~workload:"stencil3d"
        ~size:(if quick then 8 else 24)
        W.stencil_3d.W.build diag3 ]
  in
  {
    tag = "observability";
    header = [ ("procs", int procs) ];
    groups = [ ("rows", rows) ];
    row_key = [ "workload"; "size" ];
    gated = [ "events"; "dropped"; "chrome_bytes" ];
    ok = all_true "pass" rows;
  }

(* E18: differential fuzzing throughput.  One row per oracle plus the
   combined all-oracle configuration, over the same seeded mixed-depth
   case stream the test suite and CI smoke use; pass means zero
   surviving counterexamples. *)

let check ~quick =
  let count = if quick then 60 else 300 in
  let row label oracles =
    let config =
      {
        Cf_check.Fuzz.seed = 42;
        count;
        params = Cf_check.Fuzz.mixed_depths;
        oracles;
        corpus_dir = None;
        max_shrink_steps = 100;
        unnormalized = false;
      }
    in
    let stats, s = time2 (fun () -> Cf_check.Fuzz.run config) in
    let cases = stats.Cf_check.Fuzz.cases in
    J.Obj
      [ ("oracle", str label); ("cases", int cases);
        ("checks", int stats.Cf_check.Fuzz.checks);
        ("skips", int stats.Cf_check.Fuzz.skips); ("t_s", num s);
        ("cases_per_s", num (float_of_int cases /. Float.max s 1e-9));
        ("pass", bool (stats.Cf_check.Fuzz.failures = [])) ]
  in
  let rows =
    List.map (fun o -> row o.Cf_check.Oracle.name [ o ]) Cf_check.Oracle.all
    @ [ row "all" Cf_check.Oracle.all ]
  in
  {
    tag = "check";
    header = [ ("seed", int 42) ];
    groups = [ ("rows", rows) ];
    row_key = [ "oracle" ];
    gated = [ "cases"; "checks"; "skips"; "pass" ];
    ok = all_true "pass" rows;
  }

(* The fuzzer's seeded mixed-depth case stream, replayed by E20 and
   E22: case i is [generate ~index:i ~seed:42] at depth 1 + i mod 3.
   [measure] returns one count per key for a case; the result has one
   (label, summed counts, seconds) per depth plus the aggregate "all". *)
let depth_sweep ~count
    ~(generate : ?index:int -> seed:int -> Cf_check.Gen.params -> Nest.t) ~keys
    measure =
  let sums = Array.make_matrix 4 (List.length keys) 0 in
  let secs = Array.make 4 0. in
  for case = 0 to count - 1 do
    let depth = 1 + (case mod 3) in
    let nest = generate ~index:case ~seed:42 (Cf_check.Gen.default ~depth) in
    let counts, s = time (fun () -> measure nest) in
    List.iter
      (fun d ->
        Array.iteri (fun i c -> sums.(d).(i) <- sums.(d).(i) + c) counts;
        secs.(d) <- secs.(d) +. s)
      [ depth; 0 ]
  done;
  List.map
    (fun d ->
      ( (if d = 0 then "all" else Printf.sprintf "depth-%d" d),
        List.combine keys (Array.to_list sums.(d)),
        secs.(d) ))
    [ 1; 2; 3; 0 ]

(* A sweep row: the depth label and counts, then the fraction under
   [frac_key], the seconds and the pass verdict. *)
let sweep_row ~frac_key ~pass (label, counts, t) frac =
  J.Obj
    ((("depth", str label) :: List.map (fun (k, c) -> (k, int c)) counts)
    @ [ (frac_key, num frac); ("t_s", num t); ("pass", bool pass) ])

(* E20: communication-minimal fallback planning.  Replays the fuzzer's
   seeded mixed-depth case stream, keeps the nests the theorems reject
   (no communication-free parallel dimension), plans the
   minimum-communication fallback and executes it on the compiled
   backend under a service-mode machine.  A rejected nest is *servable*
   when the chosen partition splits into >= 2 blocks and the run
   reproduces the sequential results bit-for-bit; *exact* additionally
   requires the serviced message count to equal the planner's predicted
   volume.  Pass needs every servable run exact, and (aggregate row)
   >= 80% of rejected nests servable. *)

let mincomm_nprocs = 3

let mincomm ~quick =
  let module M = Cf_mincomm.Mincomm in
  (* cases, rejected, servable, exact, predicted and serviced messages *)
  let measure nest =
    let skip = [| 1; 0; 0; 0; 0; 0 |] in
    if
      not
        (Nest.cardinal nest > 0
        && Cf_exec.Compile.max_rank (Cf_exec.Compile.make nest) <= 7)
    then skip
    else
      let mc = M.plan ~nprocs:mincomm_nprocs nest in
      if mc.M.comm_free then skip
      else begin
        let predicted = mc.M.estimate.M.messages in
        let machine =
          Machine.create ~comm_mode:`Service
            (Cf_machine.Topology.linear mincomm_nprocs)
            Cf_machine.Cost.transputer
        in
        let report =
          Parexec.execute_fallback ~backend:`Compiled ~machine
            ~placement:(Parexec.cyclic ~nprocs:mincomm_nprocs)
            mc.M.partition
        in
        let serviced = Machine.serviced_messages machine in
        let servable = M.servable mc && Parexec.ok report in
        [| 1; 1; Bool.to_int servable;
           Bool.to_int (servable && serviced = predicted); predicted;
           serviced |]
      end
  in
  let row ((label, counts, _) as r) =
    let c k = List.assoc k counts in
    let frac =
      if c "rejected" = 0 then 1.0
      else float_of_int (c "servable") /. float_of_int (c "rejected")
    in
    sweep_row ~frac_key:"servable_frac" r frac
      ~pass:(c "exact" = c "servable" && (label <> "all" || frac >= 0.8))
  in
  let rows =
    List.map row
      (depth_sweep ~count:(if quick then 60 else 200)
         ~generate:Cf_check.Gen.generate
         ~keys:
           [ "cases"; "rejected"; "servable"; "exact"; "predicted_msgs";
             "serviced_msgs" ]
         measure)
  in
  {
    tag = "mincomm";
    header = [ ("seed", int 42); ("nprocs", int mincomm_nprocs) ];
    groups = [ ("rows", rows) ];
    row_key = [ "depth" ];
    gated =
      [ "cases"; "rejected"; "servable"; "exact"; "predicted_msgs";
        "serviced_msgs"; "servable_frac"; "pass" ];
    ok = all_true "pass" rows;
  }

(* E22: the normalization front door.  Replays the unnormalized
   generator's seeded stream (skewed reads, unrolled bodies, stretched
   subscripts, shifted bounds), normalizes every nest, machine-checks
   every equivalence witness (syntactic reconstruction + bit-for-bit
   sequential replay), and measures how many nests reach a plan: raw
   (handing the unnormalized nest straight to the planner) vs through
   Pipeline.plan_normalized.  Pass needs zero witness failures and
   (aggregate row) >= 60% of nests reaching a plan via the front
   door. *)

let normalize ~quick =
  let measure nest =
    let r = Cf_normalize.Normalize.normalize nest in
    let steps =
      List.map Cf_normalize.Witness.step_name r.Cf_normalize.Normalize.steps
    in
    let count name = List.length (List.filter (String.equal name) steps) in
    let folds = count "fold" and hoists = count "hoist" in
    let compressions = count "compress" in
    let witness_failures =
      match Cf_normalize.Normalize.check r with Ok () -> 0 | Error _ -> 1
    in
    let raw_planned =
      match Cf_pipeline.Pipeline.plan_serve nest with
      | _ -> 1
      | exception Invalid_argument _ -> 0
    in
    let planned =
      match Cf_pipeline.Pipeline.plan_normalized nest with
      | Ok _ -> 1
      | Error _ -> 0
    in
    [| 1; folds; hoists; compressions;
       List.length steps - folds - hoists - compressions; witness_failures;
       raw_planned; planned |]
  in
  let row ((label, counts, _) as r) =
    let c k = List.assoc k counts in
    let frac =
      if c "cases" = 0 then 1.0
      else float_of_int (c "planned") /. float_of_int (c "cases")
    in
    sweep_row ~frac_key:"planned_frac" r frac
      ~pass:(c "witness_failures" = 0 && (label <> "all" || frac >= 0.6))
  in
  let keys =
    [ "cases"; "folds"; "hoists"; "compressions"; "shifts";
      "witness_failures"; "raw_planned"; "planned" ]
  in
  let rows =
    List.map row
      (depth_sweep ~count:(if quick then 60 else 200)
         ~generate:Cf_check.Gen.generate_unnormalized ~keys measure)
  in
  {
    tag = "normalize";
    header = [ ("seed", int 42) ];
    groups = [ ("rows", rows) ];
    row_key = [ "depth" ];
    gated = keys @ [ "planned_frac"; "pass" ];
    ok = all_true "pass" rows;
  }

(* E21: the planning server end to end — framed JSON over a Unix
   socket, admission control, load shedding.  Three phases: a soak of
   repeated requests with the plan cache on (throughput and tail
   latency of the full wire path), an unloaded cache-off baseline (the
   honest cost of one planned request over the wire), and a
   4x-capacity overload mixing a gold (priority 9) and a bronze
   (priority 1) tenant.  The overload phase checks the service-level
   objective: bronze traffic is shed with [rejected] while the p99 of
   accepted requests stays within 3x the unloaded p99 (1ms floor).
   Full mode soaks 1M requests; quick mode keeps the same shape at
   CI-friendly sizes. *)

(* One client connection's tally. *)
type client_result = {
  dr_sent : int;
  dr_ok : int;
  dr_rejected : int;
  dr_rate_limited : int;
  dr_failed : int;
  dr_lat : float list;  (* latencies of ok requests, seconds *)
}

let lost n =
  {
    dr_sent = n;
    dr_ok = 0;
    dr_rejected = 0;
    dr_rate_limited = 0;
    dr_failed = n;
    dr_lat = [];
  }

let server_src nest = Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp nest

let server_pctl lats q =
  match lats with
  | [] -> 0.
  | _ ->
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

(* [reject_backoff] is the client-side retry pause after a shed or
   rate-limited reply — the standard closed-loop client behavior, and
   on small hosts it keeps rejection churn from starving the very
   requests admission control accepted. *)
let server_drive_client ?(reject_backoff = 0.) ~socket ~tenant ~requests srcs
    =
  let module C = Cf_server.Client in
  let module P = Cf_server.Protocol in
  match C.connect_unix ~tenant socket with
  | Error _ -> lost requests
  | Ok c ->
    let srcs = Array.of_list srcs in
    let n = Array.length srcs in
    let ok = ref 0
    and rej = ref 0
    and rl = ref 0
    and fl = ref 0
    and lat = ref [] in
    for i = 0 to requests - 1 do
      let t0 = Unix.gettimeofday () in
      match C.plan ~strategy:Strategy.Min_duplicate c srcs.(i mod n) with
      | Ok reply when P.is_ok reply ->
        incr ok;
        lat := (Unix.gettimeofday () -. t0) :: !lat
      | Ok reply -> (
        match P.error_code_of reply with
        | Some P.Rejected ->
          incr rej;
          if reject_backoff > 0. then Thread.delay reject_backoff
        | Some P.Rate_limited ->
          incr rl;
          if reject_backoff > 0. then Thread.delay reject_backoff
        | _ -> incr fl)
      | Error _ -> incr fl
    done;
    C.close c;
    {
      dr_sent = requests;
      dr_ok = !ok;
      dr_rejected = !rej;
      dr_rate_limited = !rl;
      dr_failed = !fl;
      dr_lat = !lat;
    }

(* One volley: every spec is one concurrent client connection.  Returns
   per-client results tagged with the tenant, plus the wall-clock of
   the whole volley. *)
let server_load ?reject_backoff ~socket ~per_client specs =
  let t0 = Unix.gettimeofday () in
  let clients =
    List.map
      (fun (tenant, srcs) ->
        let result = ref (lost per_client) in
        let drive () =
          try
            result :=
              server_drive_client ?reject_backoff ~socket ~tenant
                ~requests:per_client srcs
          with _ -> ()
        in
        (tenant, result, Thread.create drive ()))
      specs
  in
  List.iter (fun (_, _, th) -> Thread.join th) clients;
  ( List.map (fun (tenant, result, _) -> (tenant, !result)) clients,
    Unix.gettimeofday () -. t0 )

let server_phase ~phase ~tenant ~elapsed results =
  let rs =
    List.filter_map (fun (t, r) -> if t = tenant then Some r else None) results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let lats = List.concat_map (fun r -> r.dr_lat) rs in
  let ok = sum (fun r -> r.dr_ok) in
  J.Obj
    [ ("phase", str phase); ("tenant", str tenant);
      ("clients", int (List.length rs));
      ("sent", int (sum (fun r -> r.dr_sent)));
      ("ok", int ok); ("rejected", int (sum (fun r -> r.dr_rejected)));
      ("rate_limited", int (sum (fun r -> r.dr_rate_limited)));
      ("failed", int (sum (fun r -> r.dr_failed))); ("elapsed_s", num elapsed);
      ("throughput_per_s", num (float_of_int ok /. elapsed));
      ("p50_s", num (server_pctl lats 0.5));
      ("p99_s", num (server_pctl lats 0.99)) ]

let server ~quick =
  let module Server = Cf_server.Server in
  let module Admission = Cf_server.Admission in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cfalloc-e21-%d.sock" (Unix.getpid ()))
  in
  (* Phase 1: soak the full wire path with the cache on.  Four paper
     loops repeated, so after the first round every plan is a warm
     cache hit; the numbers measure framing, dispatch and cache lookup,
     not planning. *)
  let domains = max 1 (min 2 domains_available) in
  let soak_clients = if quick then 4 else 8 in
  let soak_total = if quick then 2_000 else 1_000_000 in
  let soak_srcs = List.map server_src [ l1; l2; l3; l4 ] in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_socket = Some sock;
        domains = Some domains;
        admit_capacity = 64;
      }
  in
  let soak_results, soak_elapsed =
    server_load ~socket:sock
      ~per_client:(soak_total / soak_clients)
      (List.init soak_clients (fun _ -> ("default", soak_srcs)))
  in
  Server.stop srv;
  let soak =
    server_phase ~phase:"soak" ~tenant:"default" ~elapsed:soak_elapsed
      soak_results
  in
  (* Phases 2 and 3 run with the cache off so every accepted request
     pays for a real plan, against a small admission capacity so
     overload actually sheds.  Capacity 2 bounds an admitted request's
     sojourn at two service times — half the 3x-unloaded p99 budget —
     and [shed_start] 0.4 puts the one-slot occupancy (0.5) past the
     shedding threshold, so bronze is priority-shed while gold still
     gets the remaining slot. *)
  let capacity = 2 in
  let tenant_of_spec s =
    match Admission.tenant_of_spec s with
    | Ok t -> t
    | Error e -> failwith e
  in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_socket = Some sock;
        domains = Some domains;
        cache = None;
        admit_capacity = capacity;
        shed_start = 0.4;
        tenants =
          [ tenant_of_spec "gold:priority=9";
            tenant_of_spec "bronze:priority=1" ];
      }
  in
  (* A ~10ms plan: heavy enough that per-request scheduling noise is a
     small fraction of the latency being asserted on. *)
  let work_srcs = [ server_src (Cf_exec.Matmul.nest ~m:12) ] in
  (* Phase 2: unloaded baseline — one sequential gold client. *)
  let unl_results, unl_elapsed =
    server_load ~socket:sock
      ~per_client:(if quick then 120 else 500)
      [ ("gold", work_srcs) ]
  in
  let unloaded =
    server_phase ~phase:"unloaded" ~tenant:"gold" ~elapsed:unl_elapsed
      unl_results
  in
  (* Phase 3: 4x-capacity overload, half gold half bronze. *)
  let overload_clients = 4 * capacity in
  let over_results, over_elapsed =
    server_load ~socket:sock ~reject_backoff:0.005
      ~per_client:(if quick then 60 else 250)
      (List.init overload_clients (fun i ->
           ((if i mod 2 = 0 then "gold" else "bronze"), work_srcs)))
  in
  Server.stop srv;
  let overload tenant =
    server_phase ~phase:"overload" ~tenant ~elapsed:over_elapsed over_results
  in
  let gold = overload "gold" and bronze = overload "bronze" in
  let unloaded_p99 = field "p99_s" unloaded in
  let loaded_p99 =
    server_pctl (List.concat_map (fun (_, r) -> r.dr_lat) over_results) 0.99
  in
  let p99_budget = 3. *. Float.max unloaded_p99 0.001 in
  let soak_ok =
    field "failed" soak = 0. && field "ok" soak = field "sent" soak
  in
  let shed_ok = field "rejected" bronze > 0. in
  let latency_ok = loaded_p99 <= p99_budget in
  {
    tag = "planning-server";
    header =
      [ ("quick", bool quick); ("domains", int domains);
        ("admit_capacity", int capacity);
        ("overload_clients", int overload_clients);
        ("unloaded_p99_s", num unloaded_p99);
        ("overload_accepted_p99_s", num loaded_p99);
        ("p99_budget_s", num p99_budget); ("soak_ok", bool soak_ok);
        ("shed_ok", bool shed_ok); ("latency_ok", bool latency_ok) ];
    groups = [ ("phases", [ soak; unloaded; gold; bronze ]) ];
    row_key = [ "phase"; "tenant" ];
    gated = [ "sent"; "clients"; "failed"; "rate_limited" ];
    ok = soak_ok && shed_ok && latency_ok;
  }

(* {1 Running the experiments} *)

(* Table cells: integers exactly, other numbers to four significant
   digits, null as "-". *)
let cell = function
  | J.Num x when Float.is_integer x -> Printf.sprintf "%.0f" x
  | J.Num x -> Printf.sprintf "%.4g" x
  | J.Str s -> s
  | J.Null -> "-"
  | v -> J.to_string v

(* A row group as a table whose columns are its rows' keys. *)
let print_group (name, rows) =
  let keys =
    match rows with J.Obj fields :: _ -> List.map fst fields | _ -> []
  in
  let cells r =
    List.map (fun k -> cell (Option.value (J.member k r) ~default:J.Null)) keys
  in
  let body = List.map cells rows in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map String.length keys) body
  in
  let line cs =
    print_endline
      (String.concat " "
         (List.map2 (fun w c -> Printf.sprintf "%*s" w c) widths cs))
  in
  Printf.printf "%s:\n" name;
  line keys;
  List.iter line body

(* The report file: a header line — [bench], [gated], [row_key], then
   the experiment's own fields — and one row per line. *)
let write_report file r =
  let names l = J.List (List.map str l) in
  let field (k, v) = J.escape_string k ^ ":" ^ J.to_string v in
  let group (name, rows) =
    ",\n" ^ J.escape_string name ^ ":[\n"
    ^ String.concat ",\n" (List.map J.to_string rows)
    ^ "]"
  in
  let header =
    ("bench", str r.tag) :: ("gated", names r.gated)
    :: ("row_key", names r.row_key) :: r.header
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        ("{" ^ String.concat "," (List.map field header)
        ^ String.concat "" (List.map group r.groups)
        ^ "}\n"))

(* The first entry is also what a bare --quick runs. *)
let registry =
  [
    { flag = "--scale"; file = "BENCH_parexec.json"; run = parexec;
      title = "E14 + E19 - scale-out engine, compiled vs interpreted kernels" };
    { flag = "--service"; file = "BENCH_service.json"; run = service;
      title = "E15 - planning service: throughput, cache, latency" };
    { flag = "--faults"; file = "BENCH_faults.json"; run = faults;
      title =
        "E16 + E23 - fault recovery vs kill rate, delta checkpoints vs \
         cadence" };
    { flag = "--obs"; file = "BENCH_obs.json"; run = obs;
      title =
        "E17 - observability: null-sink overhead, ring sink, Chrome export" };
    { flag = "--check"; file = "BENCH_check.json"; run = check;
      title = "E18 - differential fuzzing: cases/sec per oracle" };
    { flag = "--mincomm"; file = "BENCH_mincomm.json"; run = mincomm;
      title =
        "E20 - communication-minimal fallback: servable fraction, volume \
         prediction" };
    { flag = "--normalize"; file = "BENCH_normalize.json"; run = normalize;
      title =
        "E22 - normalization front door: witnessed transforms, reach-a-plan \
         fraction" };
    { flag = "--server"; file = "BENCH_server.json"; run = server;
      title = "E21 - planning server: soak, overload, load-shedding" };
  ]

(* Runs one experiment, prints its header and tables, writes its report
   into [json_dir] (default the working directory; created if missing)
   and returns its verdict. *)
let run_entry ~quick ~json_dir e =
  section e.title;
  let r = e.run ~quick in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k (cell v)) r.header;
  List.iter print_group r.groups;
  let file =
    match json_dir with
    | None -> e.file
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      Filename.concat dir e.file
  in
  write_report file r;
  Printf.printf "wrote %s\n%s: %s\n%!" file r.tag
    (if r.ok then "pass" else "FAIL");
  r.ok

(* The command line: --quick, one flag per registry entry, and
   --json-dir DIR.  Anything else, or --json-dir without a value, prints
   the usage and exits 2 rather than silently running the whole
   suite. *)
let parse_args () =
  let flags = "--quick" :: List.map (fun e -> e.flag) registry in
  let usage () =
    Printf.eprintf "usage: %s [%s] [--json-dir DIR]\n"
      (Filename.basename Sys.argv.(0))
      (String.concat "] [" flags);
    exit 2
  in
  let rec parse acc dir = function
    | [] -> (acc, dir)
    | "--json-dir" :: d :: rest when not (String.starts_with ~prefix:"-" d) ->
      parse acc (Some d) rest
    | f :: rest when List.mem f flags -> parse (f :: acc) dir rest
    | _ -> usage ()
  in
  parse [] None (List.tl (Array.to_list Sys.argv))

(* Each flag runs its experiment (at small sizes under --quick); bare
   --quick runs the scale-out smoke; no flag runs the paper's figures
   and tables, every experiment at full size and the micro-benchmarks.
   Any mode exits 1 when an experiment it ran failed. *)
let () =
  let flags, json_dir = parse_args () in
  let quick = List.mem "--quick" flags in
  let chosen = List.filter (fun e -> List.mem e.flag flags) registry in
  let full = chosen = [] && not quick in
  if full then begin
    print_figures ();
    print_tables ();
    print_ablation ();
    print_commcost ();
    print_advisor ();
    print_distribution ()
  end;
  let chosen =
    if chosen <> [] then chosen
    else if quick then [ List.hd registry ]
    else registry
  in
  let ok = List.for_all Fun.id (List.map (run_entry ~quick ~json_dir) chosen) in
  if full then run_benchmarks ();
  if not ok then exit 1
