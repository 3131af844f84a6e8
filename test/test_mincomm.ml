(* The communication-minimal fallback tier: candidate enumeration, the
   first-touch volume estimator (against hand-computed counts), service
   mode on the machine, end-to-end fallback execution, and the
   plan_serve facade. *)

open Testutil
module M = Cf_mincomm.Mincomm
module Machine = Cf_machine.Machine
module Subspace = Cf_linalg.Subspace

(* Fully sequential 1-D recurrence: every theorem rejects it. *)
let chain =
  Cf_loop.Parse.nest {|
for i = 1 to 4
  A[i] := A[i-1] + 1;
end
|}

(* 2x2x2 matmul with accumulation: Psi_C = span{e_k}, Psi_A = span{e_j},
   Psi_B = span{e_i}; the join is full-dimensional, so Theorem 1 rejects
   the nest even though each per-array space is a fine candidate. *)
let matmul222 =
  Cf_loop.Parse.nest
    {|
for i = 1 to 2
  for j = 1 to 2
    for k = 1 to 2
      C[i, j] := C[i, j] + A[i, k] * B[k, j];
    end
  end
end
|}

let axis n k =
  Subspace.span n
    [ Cf_linalg.Vec.of_int_array
        (Array.init n (fun i -> if i = k then 1 else 0)) ]

(* {2 Volume estimator against hand-computed counts} *)

(* Chain, blockless partition, 2 PEs cyclic: blocks 1..4 land on PEs
   0,1,0,1.  Iteration 1 first-touches A[1] and A[0] on PE0; every
   later iteration i reads A[i-1] homed on the other PE: 3 remote
   reads, no remote writes (each A[i] is written by its own home). *)
let estimate_chain () =
  let e = M.estimate ~nprocs:2 chain (Subspace.zero 1) in
  check_int "messages" 3 e.M.messages;
  check_int "remote reads" 3 e.M.remote_reads;
  check_int "remote writes" 0 e.M.remote_writes;
  Alcotest.(check (array int)) "per-block" [| 0; 1; 1; 1 |] e.M.per_block

(* Matmul under span{e_k} (the Psi_C candidate), 2 PEs cyclic: the four
   (i, j) blocks land on PEs 0,1,0,1.  C is block-local by
   construction.  A[i, k] is first touched at j = 1 (PE of block
   (i, 1)) and re-read at j = 2 from the other PE: 4 remote reads.
   B[k, j] is first touched at i = 1 and re-read at i = 2, but blocks
   (1, j) and (2, j) share a PE under the cyclic map: 0 messages. *)
let estimate_matmul_axis_k () =
  let e = M.estimate ~nprocs:2 matmul222 (axis 3 2) in
  check_int "messages" 4 e.M.messages;
  check_int "remote reads" 4 e.M.remote_reads;
  check_int "remote writes" 0 e.M.remote_writes

(* A comm-free nest under its own Psi predicts zero volume on any
   machine size (Theorem 1 made executable through the estimator). *)
let estimate_commfree_zero () =
  List.iter
    (fun (name, nest) ->
      let psi =
        Cf_core.Strategy.partitioning_space Cf_core.Strategy.Nonduplicate nest
      in
      if Cf_core.Strategy.parallelism_degree psi > 0 then
        List.iter
          (fun nprocs ->
            let e = M.estimate ~nprocs nest psi in
            check_int
              (Printf.sprintf "%s zero volume on %d PEs" name nprocs)
              0 e.M.messages)
          [ 2; 3; 5 ])
    all_paper_loops

(* {2 Candidate enumeration} *)

let candidates_matmul () =
  let cands = M.candidates matmul222 in
  let origins = List.map (fun c -> c.M.origin) cands in
  List.iter
    (fun o ->
      check_bool (o ^ " enumerated") true (List.mem o origins))
    [ "theorem-2"; "psi[A]"; "psi[B]"; "psi_r[A]"; "join-minus[A]";
      "join-minus[B]"; "join-minus[C]" ];
  (* Dedup keeps the first origin, and for matmul every later family
     collapses into an earlier one: span{e_k} is Psi_C and the
     flow-dependence span but surfaces as theorem-2 (replicating the
     read-only A and B makes matmul comm-free), the axis lines are the
     per-array spaces, the slabs are the leave-one-out joins, and the
     zero space is psi_r of a read-only array. *)
  check_int "exactly the seven dedup survivors" 7 (List.length cands);
  check_bool "span{e_k} present" true
    (List.exists (fun c -> Subspace.equal c.M.space (axis 3 2)) cands);
  check_bool "zero space present" true
    (List.exists (fun c -> Subspace.is_trivial c.M.space) cands);
  List.iter
    (fun c ->
      check_bool (c.M.origin ^ " below ambient dim") true
        (Subspace.dim c.M.space < 3))
    cands;
  (* spaces are deduplicated *)
  let rec no_dup = function
    | [] -> true
    | c :: rest ->
      (not (List.exists (fun c' -> Subspace.equal c.M.space c'.M.space) rest))
      && no_dup rest
  in
  check_bool "no duplicate spaces" true (no_dup cands)

let candidates_chain () =
  (* n = 1: every 1-dimensional candidate is full-dimensional and
     dropped; only the blockless partition remains. *)
  match M.candidates chain with
  | [ c ] ->
    check_string "origin" "free" c.M.origin;
    check_bool "trivial space" true (Subspace.is_trivial c.M.space)
  | cs -> Alcotest.failf "expected exactly one candidate, got %d" (List.length cs)

(* {2 Planning} *)

let plan_chain () =
  let mc = M.plan ~nprocs:2 chain in
  check_bool "not comm-free" false mc.M.comm_free;
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "theorem %d rejects" (M.theorem_number v.M.strategy))
        true
        (v.M.parallelism = Some 0))
    (M.verdicts (Cf_core.Facts.make chain));
  check_string "choice" "free" mc.M.choice.M.origin;
  check_int "predicted messages" 3 mc.M.estimate.M.messages;
  check_bool "servable" true (M.servable mc)

let plan_commfree_is_exact () =
  let mc = M.plan ~nprocs:3 l1 in
  check_bool "comm-free" true mc.M.comm_free;
  check_string "origin" "theorem-1" mc.M.choice.M.origin;
  check_int "zero volume" 0 mc.M.estimate.M.messages;
  let psi =
    Cf_core.Strategy.partitioning_space Cf_core.Strategy.Nonduplicate l1
  in
  check_bool "exact space" true (Subspace.equal psi mc.M.choice.M.space)

let plan_picks_min_volume () =
  let mc = M.plan ~nprocs:2 matmul222 in
  check_bool "not comm-free" false mc.M.comm_free;
  check_bool "servable" true (M.servable mc);
  (* the ranking is exhaustive over the candidates: nothing evaluated
     beats the choice *)
  List.iter
    (fun (_, e) ->
      check_bool "choice minimizes volume" true
        (mc.M.estimate.M.messages <= e.M.messages))
    mc.M.ranked

(* {2 Machine service mode} *)

let comm_mode_names () =
  check_bool "strict" true (Machine.comm_mode_of_string "strict" = Some `Strict);
  check_bool "service" true
    (Machine.comm_mode_of_string "service" = Some `Service);
  check_bool "unknown" true (Machine.comm_mode_of_string "cached" = None);
  check_int "two modes" 2 (List.length Machine.comm_mode_names)

let service_machine () =
  let m =
    Machine.create ~comm_mode:`Service
      (Cf_machine.Topology.linear 2)
      Cf_machine.Cost.transputer
  in
  Machine.store m ~pe:0 "A" [| 1 |] 10;
  (* remote read: serviced from the home PE, charged to the reader *)
  check_int "serviced value" 10 (Machine.read m ~pe:1 "A" [| 1 |]);
  check_int "one serviced read" 1 (Machine.serviced_reads m);
  check_bool "service time charged" true (Machine.service_time m ~pe:1 > 0.);
  check_bool "home PE pays nothing" true (Machine.service_time m ~pe:0 = 0.);
  (* remote write: updates the home copy in place *)
  Machine.write m ~pe:1 "A" [| 1 |] 77;
  check_int "one serviced write" 1 (Machine.serviced_writes m);
  check_int "home copy updated" 77 (Machine.read m ~pe:0 "A" [| 1 |]);
  check_int "messages" 2 (Machine.serviced_messages m);
  (* an element held nowhere is still a hard fault *)
  check_bool "absent element raises" true
    (match Machine.read m ~pe:1 "A" [| 9 |] with
    | _ -> false
    | exception Machine.Remote_access _ -> true);
  Machine.reset_stats m;
  check_int "counters reset" 0 (Machine.serviced_messages m)

let strict_machine_unchanged () =
  let m =
    Machine.create (Cf_machine.Topology.linear 2) Cf_machine.Cost.transputer
  in
  check_bool "default strict" true (Machine.comm_mode m = `Strict);
  Machine.store m ~pe:0 "A" [| 1 |] 10;
  check_bool "remote read raises" true
    (match Machine.read m ~pe:1 "A" [| 1 |] with
    | _ -> false
    | exception Machine.Remote_access _ -> true)

(* {2 End-to-end fallback execution} *)

let execute_fallback_chain () =
  List.iter
    (fun backend ->
      let mc = M.plan ~nprocs:2 chain in
      let machine =
        Machine.create ~comm_mode:`Service
          (Cf_machine.Topology.linear 2)
          Cf_machine.Cost.transputer
      in
      let r =
        Cf_exec.Parexec.execute_fallback ~backend ~machine
          ~placement:(Cf_exec.Parexec.cyclic ~nprocs:2)
          mc.M.partition
      in
      check_bool "sequential result" true (Cf_exec.Parexec.ok r);
      check_int "simulated = predicted" mc.M.estimate.M.messages
        (Machine.serviced_messages machine))
    [ `Compiled; `Interpreted ]

let execute_fallback_strict_aborts () =
  let mc = M.plan ~nprocs:2 chain in
  let machine =
    Machine.create (Cf_machine.Topology.linear 2) Cf_machine.Cost.transputer
  in
  let r =
    Cf_exec.Parexec.execute_fallback ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs:2)
      mc.M.partition
  in
  check_bool "strict machine aborts" true
    (r.Cf_exec.Parexec.remote_access <> None)

(* Charged distribution of home copies: one host message per (array,
   PE) that homes anything, together carrying every accessed element
   exactly once. *)
let execute_fallback_charged () =
  let mc = M.plan ~nprocs:2 matmul222 in
  let machine =
    Machine.create ~comm_mode:`Service
      (Cf_machine.Topology.linear 2)
      Cf_machine.Cost.transputer
  in
  let placement = Cf_exec.Parexec.cyclic ~nprocs:2 in
  let r =
    Cf_exec.Parexec.execute_fallback ~charge_distribution:true ~machine
      ~placement mc.M.partition
  in
  check_bool "sequential result" true (Cf_exec.Parexec.ok r);
  let homes = Cf_exec.Parexec.fallback_homes ~placement mc.M.partition in
  let groups =
    Array.fold_left
      (fun acc (_, tbl) ->
        acc
        + List.length
            (List.sort_uniq compare
               (Hashtbl.fold (fun _ pe acc -> pe :: acc) tbl [])))
      0 homes
  in
  let elements =
    Array.fold_left (fun acc (_, tbl) -> acc + Hashtbl.length tbl) 0 homes
  in
  check_int "one message per (array, PE)" groups
    (Machine.message_count machine);
  check_int "every element sent once" elements
    (Machine.message_volume machine);
  check_int "simulated = predicted" mc.M.estimate.M.messages
    (Machine.serviced_messages machine)

(* {2 plan_serve facade} *)

let plan_serve_exact () =
  match Cf_pipeline.Pipeline.plan_serve l1 with
  | Cf_pipeline.Pipeline.Exact t ->
    check_bool "parallelism" true (Cf_pipeline.Pipeline.parallelism t > 0)
  | Cf_pipeline.Pipeline.Fallback _ ->
    Alcotest.fail "L1 is communication-free; expected an exact plan"

let plan_serve_fallback () =
  let planned = Cf_pipeline.Pipeline.plan_serve ~nprocs:2 chain in
  match planned with
  | Cf_pipeline.Pipeline.Exact _ ->
    Alcotest.fail "the chain is rejected; expected a fallback plan"
  | Cf_pipeline.Pipeline.Fallback (t, mc) ->
    check_bool "pipeline fields rebuilt" true
      (Subspace.equal t.Cf_pipeline.Pipeline.space mc.M.choice.M.space);
    let issues =
      Cf_pipeline.Diagnose.explain_fallback
        ~verdicts:(M.verdicts (Cf_core.Facts.make chain))
        mc
    in
    check_bool "reports a rejection" true
      (List.exists
         (fun i -> i.Cf_pipeline.Diagnose.code = "theorem-rejected")
         issues);
    check_bool "reports the choice" true
      (List.exists
         (fun i -> i.Cf_pipeline.Diagnose.code = "fallback-chosen")
         issues);
    let sim = Cf_pipeline.Pipeline.simulate_serve planned in
    check_bool "serviced run ok" true
      (Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report);
    check_int "simulated = predicted" mc.M.estimate.M.messages
      (Machine.serviced_messages
         sim.Cf_pipeline.Pipeline.report.Cf_exec.Parexec.machine)

(* The canonical nest's plan relabeled to the caller's names: array
   origins name the caller's arrays, everything numeric is shared. *)
let relabel_names_arrays () =
  let c = Cf_cache.Canon.canonicalize matmul222 in
  let canonical = M.plan ~search_radius:0 c.Cf_cache.Canon.nest in
  let mc = M.relabel canonical matmul222 in
  let cold = M.plan ~search_radius:0 matmul222 in
  check_bool "caller's nest" true (mc.M.nest == matmul222);
  check_bool "partition relabeled" true
    (Cf_core.Iter_partition.nest mc.M.partition == matmul222);
  let origins t = List.sort compare (List.map (fun (c, _) -> c.M.origin) t.M.ranked) in
  check_bool "psi[C] present" true (List.mem "psi[C]" (origins mc));
  check_bool "same origins as a cold plan" true (origins mc = origins cold);
  check_bool "estimates shared" true
    (List.for_all2 (fun (_, a) (_, b) -> a == b) canonical.M.ranked mc.M.ranked);
  check_int "volume" cold.M.estimate.M.messages mc.M.estimate.M.messages;
  check_int "dimension"
    (Subspace.dim cold.M.choice.M.space)
    (Subspace.dim mc.M.choice.M.space);
  (match M.relabel canonical chain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a nest of another shape must be refused")

(* {2 One-walk scorer against the reference}

   [plan] scores all its candidates in one walk (the multi-candidate
   path on rejected nests) and [estimate] scores one space (the
   single-candidate path).  Both must give every candidate the block
   count and estimate that the reference scorer
   [Cf_check.Refpartition.estimate] gives over the materialized
   partition of its space — the per-block histogram's
   length is the scorer's block count. *)

let scorer_nprocs = [ 1; 2; 3; 16 ]

let matches_reference ~nprocs nest (c : M.candidate) (e : M.estimate) =
  let rp = Cf_check.Refpartition.make nest c.M.space in
  Array.length e.M.per_block = Cf_check.Refpartition.block_count rp
  && e
     = Cf_check.Refpartition.estimate
         ~placement:(Cf_exec.Parexec.cyclic ~nprocs) rp

let plannable nest =
  Cf_loop.Nest.cardinal nest > 0 && Cf_loop.Nest.all_uniformly_generated nest

let scorer_agrees nest =
  (not (plannable nest))
  || List.for_all
       (fun nprocs ->
         List.for_all
           (fun (c, e) -> matches_reference ~nprocs nest c e)
           (M.plan ~nprocs nest).M.ranked
         && List.for_all
              (fun (c : M.candidate) ->
                matches_reference ~nprocs nest c
                  (M.estimate ~nprocs nest c.M.space))
              (M.candidates nest))
       scorer_nprocs

let scorer_fixed_nests () =
  let kernels =
    List.concat_map
      (fun (k : Cf_workloads.Workloads.kernel) ->
        List.init 6 (fun i ->
            (Printf.sprintf "%s/%d" k.name (i + 1), k.build ~size:(i + 1))))
      Cf_workloads.Workloads.all
  in
  List.iter
    (fun (name, nest) ->
      check_bool (name ^ ": one walk = reference") true (scorer_agrees nest))
    (all_paper_loops @ kernels)

(* {2 Properties over random nests} *)

let prop_fallback_serves nest =
  let mc = M.plan ~nprocs:3 nest in
  (* comm-free implies the zero-volume exact plan *)
  (if mc.M.comm_free then
     check_int "comm-free => zero volume" 0 mc.M.estimate.M.messages);
  let machine =
    Machine.create ~comm_mode:`Service
      (Cf_machine.Topology.linear 3)
      Cf_machine.Cost.transputer
  in
  let r =
    Cf_exec.Parexec.execute_fallback ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs:3)
      mc.M.partition
  in
  Cf_exec.Parexec.ok r
  && Machine.serviced_messages machine = mc.M.estimate.M.messages

let cases =
  [
    Alcotest.test_case "estimator: 1-D chain, hand-computed" `Quick
      estimate_chain;
    Alcotest.test_case "estimator: matmul under span{e_k}, hand-computed"
      `Quick estimate_matmul_axis_k;
    Alcotest.test_case "estimator: comm-free nests predict zero volume"
      `Quick estimate_commfree_zero;
    Alcotest.test_case "candidates: matmul enumerates the family" `Quick
      candidates_matmul;
    Alcotest.test_case "candidates: depth-1 nest keeps only the blockless one"
      `Quick candidates_chain;
    Alcotest.test_case "plan: rejected chain is served" `Quick plan_chain;
    Alcotest.test_case "plan: comm-free nest degrades to the exact plan"
      `Quick plan_commfree_is_exact;
    Alcotest.test_case "plan: choice minimizes predicted volume" `Quick
      plan_picks_min_volume;
    Alcotest.test_case "machine: comm-mode names round-trip" `Quick
      comm_mode_names;
    Alcotest.test_case "machine: service mode fetches, charges, updates"
      `Quick service_machine;
    Alcotest.test_case "machine: strict mode still faults" `Quick
      strict_machine_unchanged;
    Alcotest.test_case "execute_fallback: chain, both backends" `Quick
      execute_fallback_chain;
    Alcotest.test_case "execute_fallback: strict machine aborts" `Quick
      execute_fallback_strict_aborts;
    Alcotest.test_case "execute_fallback: charged home distribution" `Quick
      execute_fallback_charged;
    Alcotest.test_case "plan_serve: comm-free nest stays exact" `Quick
      plan_serve_exact;
    Alcotest.test_case "plan_serve: rejected nest simulates serviced" `Quick
      plan_serve_fallback;
    Alcotest.test_case "relabel: origins name the caller's arrays" `Quick
      relabel_names_arrays;
    qtest ~count:60 "random nests: fallback is sequential and on-budget"
      prop_fallback_serves arbitrary_nest;
    Alcotest.test_case
      "scorer: paper loops and kernels 1-6 match the partition reference"
      `Quick scorer_fixed_nests;
    qtest ~count:80
      "scorer: Gen nests (normal, normalized, skewed) match the partition \
       reference"
      scorer_agrees arbitrary_mixed_nest;
  ]

let suites = [ ("mincomm", cases) ]
