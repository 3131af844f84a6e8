open Cf_core
open Cf_exec
open Testutil

let seq_cases =
  [
    Alcotest.test_case "hand-checked tiny loop" `Quick (fun () ->
        (* for i = 1 to 3: A[i] := A[i-1] + 1 with A[0] = 10 initially. *)
        let t = Cf_loop.Parse.nest "for i = 1 to 3\nA[i] := A[i-1] + 1;\nend" in
        let init _ el = if el = [| 0 |] then 10 else 0 in
        let m = Seqexec.run ~init t in
        Alcotest.check Alcotest.(option int) "A[1]" (Some 11)
          (Seqexec.lookup m "A" [| 1 |]);
        Alcotest.check Alcotest.(option int) "A[3]" (Some 13)
          (Seqexec.lookup m "A" [| 3 |]);
        Alcotest.check Alcotest.(option int) "A[0] untouched" None
          (Seqexec.lookup m "A" [| 0 |]));
    Alcotest.test_case "matmul against direct computation" `Quick (fun () ->
        let m = 3 in
        let t = Matmul.nest ~m in
        let mem = Seqexec.run t in
        let a i k = Seqexec.default_init "A" [| i; k |] in
        let b k j = Seqexec.default_init "B" [| k; j |] in
        let c0 i j = Seqexec.default_init "C" [| i; j |] in
        for i = 1 to m do
          for j = 1 to m do
            let expected = ref (c0 i j) in
            for k = 1 to m do
              expected := !expected + (a i k * b k j)
            done;
            Alcotest.check
              Alcotest.(option int)
              (Printf.sprintf "C[%d,%d]" i j)
              (Some !expected)
              (Seqexec.lookup mem "C" [| i; j |])
          done
        done);
    Alcotest.test_case "scalars read deterministic values" `Quick (fun () ->
        let t = Cf_loop.Parse.nest "for i = 1 to 2\nA[i] := D;\nend" in
        let m = Seqexec.run ~scalar:(fun _ -> 7) t in
        Alcotest.check Alcotest.(option int) "A[1]" (Some 7)
          (Seqexec.lookup m "A" [| 1 |]));
    Alcotest.test_case "bindings sorted and equality" `Quick (fun () ->
        let t = Cf_loop.Parse.nest "for i = 1 to 3\nA[4 - i] := i;\nend" in
        let m = Seqexec.run t in
        let b = Seqexec.bindings m in
        check_int "three" 3 (List.length b);
        check_bool "sorted" true (b = List.sort compare b);
        check_bool "self equal" true (Seqexec.equal_on_written m m));
  ]

let par_cases =
  [
    Alcotest.test_case "L1 on 3 processors" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let partition = Iter_partition.make l1 psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 3)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:3)
            ~strategy:Strategy.Nonduplicate partition
        in
        check_bool "ok" true (Parexec.ok r);
        check_int "all 16 iterations ran" 16
          (Array.fold_left ( + ) 0 r.Parexec.per_pe_iterations));
    Alcotest.test_case "L2 duplicate on 4 processors" `Quick (fun () ->
        let partition = Iter_partition.make l2 (Cf_linalg.Subspace.zero 2) in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Duplicate partition
        in
        check_bool "ok" true (Parexec.ok r);
        Alcotest.check Alcotest.(array int) "4 each" [| 4; 4; 4; 4 |]
          r.Parexec.per_pe_iterations);
    Alcotest.test_case "L3 minimal duplicate skips redundant work" `Quick
      (fun () ->
        let psi = Strategy.partitioning_space Strategy.Min_duplicate l3 in
        let partition = Iter_partition.make l3 psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Min_duplicate partition
        in
        check_bool "ok" true (Parexec.ok r));
    Alcotest.test_case "bad partition is caught at run time" `Quick (fun () ->
        (* Partition L1 along (1,0): flow dependence crosses blocks, so a
           processor must touch a remote element. *)
        let partition =
          Iter_partition.make l1
            (Cf_linalg.Subspace.span 2 [ Cf_linalg.Vec.of_int_list [ 1; 0 ] ])
        in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~allocate:true ~machine
            ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Nonduplicate partition
        in
        check_bool "not ok" false (Parexec.ok r));
    Alcotest.test_case "placement validation" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let partition = Iter_partition.make l1 psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 2)
            Cf_machine.Cost.transputer
        in
        Alcotest.check_raises "out of range"
          (Invalid_argument "Parexec.execute: placement outside the machine")
          (fun () ->
            ignore
              (Parexec.execute ~machine ~placement:(fun _ -> 7)
                 ~strategy:Strategy.Nonduplicate partition)));
  ]

(* The engine must produce reports identical to the materialized
   reference executor in [cf_check]: same verdicts, same mismatches,
   same per-PE iteration counts, and the same machine accounting — for
   any domain count. *)
let indexed_cases =
  let mk nprocs =
    Cf_machine.Machine.create
      (Cf_machine.Topology.linear nprocs)
      Cf_machine.Cost.transputer
  in
  let remote_t = Alcotest.(option (triple int string (array int))) in
  let check_parity ?(domains_list = [ 1; 3 ]) ?(prepare = fun _ -> ())
      ?backend ?allocate ?charge_distribution ~name ~nprocs ~strategy nest psi =
    let partition = Iter_partition.make nest psi in
    let coset = Coset.make nest psi in
    let placement = Parexec.cyclic ~nprocs in
    let base_machine = mk nprocs in
    prepare base_machine;
    let base =
      Cf_check.Refexec.execute ?backend ?allocate ?charge_distribution
        ~machine:base_machine ~placement ~strategy partition
    in
    List.iter
      (fun domains ->
        let ctx s = Printf.sprintf "%s/d%d %s" name domains s in
        let machine = mk nprocs in
        prepare machine;
        let r =
          Parexec.execute_indexed ?backend ?allocate ?charge_distribution
            ~domains ~machine ~placement ~strategy coset
        in
        Alcotest.check remote_t (ctx "remote") base.Parexec.remote_access
          r.Parexec.remote_access;
        check_bool (ctx "mismatches") true
          (base.Parexec.mismatches = r.Parexec.mismatches);
        if base.Parexec.remote_access = None then begin
          Alcotest.check
            Alcotest.(array int)
            (ctx "per-PE iterations") base.Parexec.per_pe_iterations
            r.Parexec.per_pe_iterations;
          Alcotest.(check (float 1e-12))
            (ctx "dist time")
            (Cf_machine.Machine.distribution_time base_machine)
            (Cf_machine.Machine.distribution_time machine);
          check_int (ctx "messages")
            (Cf_machine.Machine.message_count base_machine)
            (Cf_machine.Machine.message_count machine);
          check_int (ctx "volume")
            (Cf_machine.Machine.message_volume base_machine)
            (Cf_machine.Machine.message_volume machine);
          for pe = 0 to nprocs - 1 do
            Alcotest.(check (float 0.))
              (ctx (Printf.sprintf "compute PE%d" pe))
              (Cf_machine.Machine.compute_time base_machine ~pe)
              (Cf_machine.Machine.compute_time machine ~pe);
            check_int
              (ctx (Printf.sprintf "memory PE%d" pe))
              (Cf_machine.Machine.memory_words base_machine ~pe)
              (Cf_machine.Machine.memory_words machine ~pe)
          done
        end)
      domains_list
  in
  [
    Alcotest.test_case "L1 nonduplicate parity" `Quick (fun () ->
        check_parity ~name:"L1" ~nprocs:3 ~strategy:Strategy.Nonduplicate l1
          (Strategy.partitioning_space Strategy.Nonduplicate l1));
    Alcotest.test_case "L2 singleton blocks parity" `Quick (fun () ->
        check_parity ~name:"L2" ~nprocs:4 ~strategy:Strategy.Duplicate l2
          (Cf_linalg.Subspace.zero 2));
    Alcotest.test_case "L3 minimal duplicate parity" `Quick (fun () ->
        check_parity ~name:"L3" ~nprocs:4 ~strategy:Strategy.Min_duplicate l3
          (Strategy.partitioning_space Strategy.Min_duplicate l3));
    Alcotest.test_case "L4 3-deep parity" `Quick (fun () ->
        check_parity ~name:"L4" ~nprocs:4 ~strategy:Strategy.Nonduplicate l4
          (Strategy.partitioning_space Strategy.Nonduplicate l4));
    Alcotest.test_case "charged distribution parity" `Quick (fun () ->
        check_parity ~name:"L1-charged" ~charge_distribution:true ~nprocs:3
          ~strategy:Strategy.Nonduplicate l1
          (Strategy.partitioning_space Strategy.Nonduplicate l1));
    Alcotest.test_case "bad partition: same remote verdict" `Quick (fun () ->
        check_parity ~name:"L1-bad" ~nprocs:4 ~strategy:Strategy.Nonduplicate
          l1
          (Cf_linalg.Subspace.span 2 [ Cf_linalg.Vec.of_int_list [ 1; 0 ] ]));
    Alcotest.test_case "pre-distributed data, allocate:false" `Quick (fun () ->
        (* Broadcast every element of every array under its plain name;
           all accesses are then local on every processor. *)
        let nest = l1 in
        let prepare machine =
          let seen = Hashtbl.create 64 in
          let idx = Cf_loop.Nest.indices nest in
          Cf_loop.Nest.iter_space nest (fun iter ->
              let index v =
                let rec f k = if idx.(k) = v then k else f (k + 1) in
                iter.(f 0)
              in
              List.iter
                (fun (s : Cf_loop.Stmt.t) ->
                  List.iter
                    (fun (r : Cf_loop.Aref.t) ->
                      let el = Cf_loop.Aref.eval index r in
                      Hashtbl.replace seen
                        (r.Cf_loop.Aref.array, Array.to_list el)
                        el)
                    (s.Cf_loop.Stmt.lhs :: Cf_loop.Stmt.reads s))
                nest.Cf_loop.Nest.body);
          let by_array = Hashtbl.create 8 in
          Hashtbl.iter
            (fun (a, _) el ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt by_array a)
              in
              Hashtbl.replace by_array a
                ((el, Seqexec.default_init a el) :: cur))
            seen;
          Hashtbl.iter
            (fun a els -> Cf_machine.Machine.host_broadcast machine a els)
            by_array
        in
        check_parity ~name:"L1-predist" ~prepare ~allocate:false ~nprocs:2
          ~strategy:Strategy.Duplicate l1
          (Strategy.partitioning_space Strategy.Duplicate l1));
    Alcotest.test_case "tampered inputs: the validator agrees with the reference"
      `Quick (fun () ->
        (* Every accessed element pre-placed on every PE under its plain
           name, one pure input (read, never written) tampered: the
           engine must report the reference's mismatches exactly. *)
        List.iter
          (fun (k : Cf_workloads.Workloads.kernel) ->
            let nest = k.build ~size:6 in
            let idx = Cf_loop.Nest.indices nest in
            let accessed = Hashtbl.create 256 and written = Hashtbl.create 256 in
            Cf_loop.Nest.iter_space nest (fun iter ->
                let index v =
                  let rec f j = if idx.(j) = v then iter.(j) else f (j + 1) in
                  f 0
                in
                List.iter
                  (fun (s : Cf_loop.Stmt.t) ->
                    let key (r : Cf_loop.Aref.t) =
                      (r.Cf_loop.Aref.array, Cf_loop.Aref.eval index r)
                    in
                    Hashtbl.replace written (key s.Cf_loop.Stmt.lhs) ();
                    List.iter
                      (fun r -> Hashtbl.replace accessed (key r) ())
                      (s.Cf_loop.Stmt.lhs :: Cf_loop.Stmt.reads s))
                  nest.Cf_loop.Nest.body);
            let inputs =
              List.sort compare
                (Hashtbl.fold
                   (fun key () acc ->
                     if Hashtbl.mem written key then acc else key :: acc)
                   accessed [])
            in
            let prepare tamper machine =
              Hashtbl.iter
                (fun ((a, el) as key) () ->
                  let v = Seqexec.default_init a el in
                  let v = if key = tamper then v + 1_000_003 else v in
                  for pe = 0 to 3 do
                    Cf_machine.Machine.store machine ~pe a el v
                  done)
                accessed
            in
            List.iter
              (fun strategy ->
                let name =
                  Printf.sprintf "%s/%s" k.Cf_workloads.Workloads.name
                    (Strategy.to_string strategy)
                in
                let psi = Strategy.partitioning_space strategy nest in
                let mismatching tamper =
                  let machine = mk 4 in
                  prepare tamper machine;
                  (Cf_check.Refexec.execute ~allocate:false ~machine
                     ~placement:(Parexec.cyclic ~nprocs:4) ~strategy
                     (Iter_partition.make nest psi))
                    .Parexec.mismatches
                  <> []
                in
                match List.find_opt mismatching inputs with
                | None -> Alcotest.failf "%s: no tampered input shows" name
                | Some tamper ->
                  List.iter
                    (fun backend ->
                      check_parity ~backend ~prepare:(prepare tamper)
                        ~allocate:false ~name ~nprocs:4 ~strategy nest psi)
                    [ `Compiled; `Interpreted ])
              Strategy.all)
          Cf_workloads.Workloads.all);
    Alcotest.test_case "the last writer is not the largest block id" `Quick
      (fun () ->
        (* A[7] is written from (1,4) in block 4 and later from (2,1) in
           block 3: the sequentially-last value is block 3's. *)
        let nest =
          Cf_loop.Parse.nest
            "for i = 1 to 2\n  for j = 1 to 4\n    A[3*i + j] := B[i, j] + 1;\n  end\nend\n"
        in
        let psi =
          Cf_linalg.Subspace.span 2 [ Cf_linalg.Vec.of_int_list [ 1; -2 ] ]
        in
        let coset = Coset.make nest psi in
        check_bool "block 3 holds (2,1)" true
          (Coset.block_iterations coset ~id:3 = [ [| 1; 3 |]; [| 2; 1 |] ]);
        check_bool "block 4 holds (1,4)" true
          (Coset.block_iterations coset ~id:4 = [ [| 1; 4 |]; [| 2; 2 |] ]);
        check_int "right value" 471 (Seqexec.default_init "B" [| 2; 1 |] + 1);
        check_int "block 4's value" 300 (Seqexec.default_init "B" [| 1; 4 |] + 1);
        let placed ~nprocs machine =
          for pe = 0 to nprocs - 1 do
            for i = 1 to 2 do
              for j = 1 to 4 do
                Cf_machine.Machine.store machine ~pe "A" [| (3 * i) + j |] 0;
                Cf_machine.Machine.store machine ~pe "B" [| i; j |]
                  (Seqexec.default_init "B" [| i; j |])
              done
            done
          done
        in
        List.iter
          (fun (allocate, nprocs, backend) ->
            let machine = mk nprocs in
            if not allocate then placed ~nprocs machine;
            let r =
              Parexec.execute_indexed ~backend ~allocate ~machine
                ~placement:(Parexec.cyclic ~nprocs)
                ~strategy:Strategy.Nonduplicate coset
            in
            check_bool
              (Printf.sprintf "ok (allocate %b, %d PE, %s)" allocate nprocs
                 (Compile.backend_name backend))
              true (Parexec.ok r))
          [ (true, 2, `Compiled); (true, 2, `Interpreted);
            (false, 1, `Compiled); (false, 1, `Interpreted);
            (false, 2, `Compiled); (false, 2, `Interpreted) ]);
    Alcotest.test_case "validate:false skips mismatch detection" `Quick
      (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let coset = Coset.make l1 psi in
        let machine = mk 3 in
        let r =
          Parexec.execute_indexed ~validate:false ~machine
            ~placement:(Parexec.cyclic ~nprocs:3)
            ~strategy:Strategy.Nonduplicate coset
        in
        check_bool "ok" true (Parexec.ok r);
        check_int "all iterations" 16
          (Array.fold_left ( + ) 0 r.Parexec.per_pe_iterations));
    Alcotest.test_case "placement validation" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let coset = Coset.make l1 psi in
        Alcotest.check_raises "out of range"
          (Invalid_argument
             "Parexec.execute_indexed: placement outside the machine")
          (fun () ->
            ignore
              (Parexec.execute_indexed ~machine:(mk 2) ~placement:(fun _ -> 7)
                 ~strategy:Strategy.Nonduplicate coset)));
  ]

let balance_cases =
  [
    Alcotest.test_case "metrics" `Quick (fun () ->
        let b = Balance.of_counts [| 4; 4; 4; 4 |] in
        check_int "max" 4 b.Balance.max;
        Alcotest.(check (float 1e-9)) "imbalance" 1.0 b.Balance.imbalance;
        let b = Balance.of_counts [| 8; 0 |] in
        Alcotest.(check (float 1e-9)) "skewed" 2.0 b.Balance.imbalance;
        let b = Balance.of_counts [| 0; 0 |] in
        Alcotest.(check (float 1e-9)) "empty" 0.0 b.Balance.imbalance);
  ]

let matmul_cases =
  [
    Alcotest.test_case "all variants verify on m=6" `Quick (fun () ->
        List.iter
          (fun (variant, p) ->
            let r = Matmul.simulate variant ~m:6 ~p in
            if not (Parexec.ok r.Matmul.report) then
              Alcotest.failf "%s p=%d failed" (Matmul.variant_name variant) p)
          [ (Matmul.Sequential, 1); (Matmul.Dup_b, 4); (Matmul.Dup_ab, 4);
            (Matmul.Dup_b, 16); (Matmul.Dup_ab, 16) ]);
    Alcotest.test_case "analytic formulas" `Quick (fun () ->
        let c = Cf_machine.Cost.make ~t_comp:1e-6 ~t_start:1e-4 ~t_comm:1e-6 in
        Alcotest.(check (float 1e-12)) "T1" (64e-6 *. 64.)
          (Matmul.analytic_time c Matmul.Sequential ~m:16 ~p:1);
        (* T2 for m=16, p=4: comp + (4 ts + 256 tc) + (ts + 2*2*256 tc). *)
        Alcotest.(check (float 1e-12)) "T2"
          ((4096e-6 /. 4.) +. (4e-4 +. 256e-6) +. (1e-4 +. 1024e-6))
          (Matmul.analytic_time c Matmul.Dup_b ~m:16 ~p:4);
        (* T3 for m=16, p=4: comp + 2 (2 ts + 2*256 tc). *)
        Alcotest.(check (float 1e-12)) "T3"
          ((4096e-6 /. 4.) +. (2. *. ((2. *. 1e-4) +. 512e-6)))
          (Matmul.analytic_time c Matmul.Dup_ab ~m:16 ~p:4);
        Alcotest.check_raises "L5 needs p=1"
          (Invalid_argument "Matmul.analytic_time: L5 is sequential")
          (fun () ->
            ignore (Matmul.analytic_time c Matmul.Sequential ~m:16 ~p:4)));
    Alcotest.test_case "shape: L5'' beats L5' at p=16" `Quick (fun () ->
        let c = Cf_machine.Cost.transputer in
        List.iter
          (fun m ->
            check_bool
              (Printf.sprintf "m=%d" m)
              true
              (Matmul.analytic_time c Matmul.Dup_ab ~m ~p:16
               < Matmul.analytic_time c Matmul.Dup_b ~m ~p:16))
          [ 16; 32; 64; 128; 256 ]);
    Alcotest.test_case "shape: speedup grows with m" `Quick (fun () ->
        let c = Cf_machine.Cost.transputer in
        let s m = Matmul.speedup c Matmul.Dup_ab ~m ~p:16 in
        check_bool "monotone" true (s 16 < s 32 && s 32 < s 64 && s 64 < s 128);
        check_bool "bounded by p" true (s 256 < 16.));
    Alcotest.test_case "simulated distribution matches analytic shape" `Quick
      (fun () ->
        (* The simulator's charged distribution time approximates the
           closed form (same terms, small pipeline-fill differences). *)
        let c = Cf_machine.Cost.transputer in
        let r = Matmul.simulate ~cost:c Matmul.Dup_ab ~m:8 ~p:4 in
        let analytic =
          Matmul.analytic_time c Matmul.Dup_ab ~m:8 ~p:4
          -. (512. /. 4. *. c.Cf_machine.Cost.t_comp)
        in
        let rel =
          Float.abs (r.Matmul.distribution_time -. analytic) /. analytic
        in
        check_bool "within 15%" true (rel < 0.15));
    Alcotest.test_case "assign helpers" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l4 in
        let pl = Cf_transform.Transformer.transform l4 psi in
        Alcotest.check Alcotest.(array int) "grid" [| 4; 4 |]
          (Assign.grid_for pl ~procs:16);
        let counts = Assign.parloop_counts pl ~grid:[| 2; 2 |] in
        check_int "covers all" 64 (Array.fold_left ( + ) 0 counts));
  ]

let commcost_cases =
  [
    Alcotest.test_case "communication-free plans score zero" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let p = Iter_partition.make l1 psi in
        let c =
          Commcost.measure ~placement:(Parexec.cyclic ~nprocs:3) p
        in
        check_bool "free" true (Commcost.is_free c);
        check_bool "still counts local flows" true (c.Commcost.total_flow_pairs > 0));
    Alcotest.test_case "outer slabs of L1 pay for the flow dep" `Quick
      (fun () ->
        (* L1's flow dependence is (1,1): slicing the i loop into rows
           crosses it between every pair of neighboring rows. *)
        let p = Commcost.outer_slab_partition l1 in
        check_int "4 row blocks" 4 (Iter_partition.block_count p);
        let c =
          Commcost.measure ~placement:(Parexec.cyclic ~nprocs:4) p
        in
        check_bool "not free" false (Commcost.is_free c);
        check_bool "remote values bounded by reads" true
          (c.Commcost.remote_values <= c.Commcost.remote_reads));
    Alcotest.test_case "single processor is trivially free" `Quick (fun () ->
        let p = Commcost.outer_slab_partition l1 in
        let c = Commcost.measure ~placement:(fun _ -> 0) p in
        check_bool "free" true (Commcost.is_free c));
    Alcotest.test_case "matmul outer slabs ship C values" `Quick (fun () ->
        (* C[i,j] accumulates over k; slicing i keeps C local, so rows
           are actually free for matmul - the interesting cost appears
           when slicing the k loop instead. *)
        let nest = Matmul.nest ~m:4 in
        let psi_k =
          Cf_linalg.Subspace.span 3
            [ Cf_linalg.Vec.basis 3 0; Cf_linalg.Vec.basis 3 1 ]
        in
        let p = Iter_partition.make nest psi_k in
        let c =
          Commcost.measure ~placement:(Parexec.cyclic ~nprocs:4) p
        in
        check_bool "k-slicing is not free" false (Commcost.is_free c));
  ]

let advisor_cases =
  [
    Alcotest.test_case "matmul: duplicating both inputs wins at m=12" `Quick
      (fun () ->
        let best = Advisor.best ~procs:16 (Matmul.nest ~m:12) in
        check_bool "A and B duplicated" true
          (List.mem "A" best.Advisor.duplicated
           && List.mem "B" best.Advisor.duplicated);
        check_int "two parallel dims" 2 best.Advisor.parallel_dims);
    Alcotest.test_case "matmul: single-axis duplication wins when tiny" `Quick
      (fun () ->
        (* Startup dominates at m=6: replicating one input is cheaper. *)
        let best = Advisor.best ~procs:16 (Matmul.nest ~m:6) in
        check_int "one parallel dim" 1 best.Advisor.parallel_dims);
    Alcotest.test_case "L1: duplicate nothing" `Quick (fun () ->
        let best = Advisor.best ~procs:4 l1 in
        Alcotest.check Alcotest.(list string) "empty set" []
          best.Advisor.duplicated;
        check_int "parallelism kept" 1 best.Advisor.parallel_dims);
    Alcotest.test_case "candidate list covers all subsets, ranked" `Quick
      (fun () ->
        let cs = Advisor.candidates ~procs:4 (Matmul.nest ~m:4) in
        check_int "2^3 subsets" 8 (List.length cs);
        let times = List.map (fun c -> c.Advisor.estimated_time) cs in
        check_bool "sorted ascending" true
          (times = List.sort compare times));
    Alcotest.test_case "validation" `Quick (fun () ->
        Alcotest.check_raises "procs"
          (Invalid_argument "Advisor.candidates: procs < 1") (fun () ->
            ignore (Advisor.candidates ~procs:0 l1)));
  ]

let estimate_cases =
  [
    Alcotest.test_case "L1 estimates" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l1 in
        let p = Iter_partition.make l1 psi in
        let c = Cf_machine.Cost.make ~t_comp:1. ~t_start:0. ~t_comm:0. in
        Alcotest.(check (float 1e-9)) "largest block = 4" 4.
          (Estimate.max_block_makespan ~cost:c p);
        (* Cyclic on 4 PEs: sizes (4,3,2,1,3,2,1) -> PE0 {B1,B5} = 7,
           PE1 {B2,B6} = 5, PE2 {B3,B7} = 3, PE3 {B4} = 1. *)
        Alcotest.check Alcotest.(array int) "loads" [| 7; 5; 3; 1 |]
          (Estimate.per_pe_iterations ~procs:4 p);
        Alcotest.(check (float 1e-9)) "cyclic makespan" 7.
          (Estimate.cyclic_makespan ~cost:c ~procs:4 p);
        Alcotest.(check (float 1e-9)) "speedup ceiling 16/4" 4.
          (Estimate.speedup_limit p));
    Alcotest.test_case "estimates match the simulator" `Quick (fun () ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate l4 in
        let partition = Iter_partition.make l4 psi in
        let cost = Cf_machine.Cost.transputer in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4) cost
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Nonduplicate partition
        in
        check_bool "ok" true (Parexec.ok r);
        Alcotest.(check (float 1e-12)) "simulated compute = estimate"
          (Estimate.cyclic_makespan ~cost ~procs:4 partition)
          (Cf_machine.Machine.max_compute_time machine);
        Alcotest.check Alcotest.(array int) "same loads"
          (Estimate.per_pe_iterations ~procs:4 partition)
          r.Parexec.per_pe_iterations);
  ]

let properties =
  [
    qtest "estimate agrees with simulation on random loops" ~count:30
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate nest in
        let partition = Iter_partition.make nest psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 3)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:3)
            ~strategy:Strategy.Nonduplicate partition
        in
        Parexec.ok r
        && Estimate.per_pe_iterations ~procs:3 partition
           = r.Parexec.per_pe_iterations)
      arbitrary_nest;
    qtest "advisor's best plan is communication-free" ~count:20
      (fun nest ->
        let best = Advisor.best ~procs:4 nest in
        let partition = Iter_partition.make nest best.Advisor.space in
        (* Selective duplication: the duplicated arrays behave like the
           duplicate regime; conservatively check flow-dependence
           locality, which selective spaces always guarantee. *)
        Verify.communication_free Strategy.Duplicate partition)
      arbitrary_nest;
    qtest "commcost zero iff duplicate-verify passes" ~count:30
      (fun nest ->
        (* Under a random non-trivial partition, the estimator's
           zero-remote-reads verdict must agree with the flow-dependence
           criterion of Verify (duplicate regime checks flows only). *)
        let p = Commcost.outer_slab_partition nest in
        let exact = Cf_dep.Exact.analyze nest in
        let nprocs = Iter_partition.block_count p in
        let c =
          Commcost.measure ~exact ~placement:(Parexec.cyclic ~nprocs) p
        in
        Commcost.is_free c
        = Verify.communication_free ~exact Strategy.Duplicate p)
      arbitrary_nest;
    qtest "parallel execution equals sequential (Thm 1 end-to-end)" ~count:40
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate nest in
        let partition = Iter_partition.make nest psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 3)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:3)
            ~strategy:Strategy.Nonduplicate partition
        in
        Parexec.ok r)
      arbitrary_nest;
    qtest "parallel execution equals sequential (Thm 2 end-to-end)" ~count:40
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Duplicate nest in
        let partition = Iter_partition.make nest psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~machine ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Duplicate partition
        in
        Parexec.ok r)
      arbitrary_nest;
    qtest "minimal duplicate execution stays correct" ~count:30
      (fun nest ->
        let exact = Cf_dep.Exact.analyze nest in
        let psi =
          Strategy.partitioning_space ~exact Strategy.Min_duplicate nest
        in
        let partition = Iter_partition.make nest psi in
        let machine =
          Cf_machine.Machine.create (Cf_machine.Topology.linear 4)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute ~exact ~machine ~placement:(Parexec.cyclic ~nprocs:4)
            ~strategy:Strategy.Min_duplicate partition
        in
        Parexec.ok r)
      arbitrary_nest;
    qtest "indexed engine reports match execute on random loops" ~count:25
      (fun nest ->
        List.for_all
          (fun strategy ->
            let psi = Strategy.partitioning_space strategy nest in
            let partition = Iter_partition.make nest psi in
            let coset = Coset.make nest psi in
            let placement = Parexec.cyclic ~nprocs:3 in
            let mk () =
              Cf_machine.Machine.create
                (Cf_machine.Topology.linear 3)
                Cf_machine.Cost.transputer
            in
            let mb = mk () and mi = mk () in
            let base =
              Cf_check.Refexec.execute ~machine:mb ~placement ~strategy
                partition
            in
            let r =
              Parexec.execute_indexed ~machine:mi ~placement ~strategy coset
            in
            base.Parexec.remote_access = r.Parexec.remote_access
            && base.Parexec.mismatches = r.Parexec.mismatches
            && (base.Parexec.remote_access <> None
               || base.Parexec.per_pe_iterations = r.Parexec.per_pe_iterations
                  && Cf_machine.Machine.max_compute_time mb
                     = Cf_machine.Machine.max_compute_time mi))
          [ Strategy.Nonduplicate; Strategy.Duplicate ])
      arbitrary_nest;
  ]

(* {2 The flat data path}

   Host arrays, gathered copies and the flat golden run: what they may
   allocate, how often they call [init], and what validation reports. *)

let cyclic2 = Parexec.cyclic ~nprocs:2
let machine2 () = Cf_machine.Machine.create (Cf_machine.Topology.linear 2)
    Cf_machine.Cost.transputer

let allocated_words f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let flat_path_cases =
  [
    Alcotest.test_case "a strided footprint stays sparse" `Quick (fun () ->
        (* One block of 1000 iterations whose copy of A spans a box of
           1024001 cells with 1001 elements in it. *)
        let nest =
          Cf_loop.Parse.nest
            "for i = 1 to 1000\n  A[1024*i] := A[1024*i - 1024] + 1;\nend\n"
        in
        let plan = Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate nest in
        check_int "one block" 1 (Cf_pipeline.Pipeline.block_count plan);
        let machine = machine2 () in
        let r, words =
          allocated_words (fun () ->
              Parexec.execute ~machine ~placement:cyclic2
                ~strategy:Strategy.Nonduplicate plan.Cf_pipeline.Pipeline.partition)
        in
        check_bool "validated" true (Parexec.ok r);
        check_int "the copy holds the footprint" 1001
          (Cf_machine.Machine.memory_words machine ~pe:0);
        let aid = Option.get (Cf_machine.Machine.find_array_id machine "A#1") in
        check_bool "the copy is sparse" true
          (Cf_machine.Machine.flat_view machine ~pe:0 aid = None);
        (* A flat copy (or host array) over the box alone would cost
           over a million words. *)
        check_bool
          (Printf.sprintf "allocation (%.0f words) far below the box" words)
          true (words < 400_000.));
    Alcotest.test_case "init runs once per distinct accessed element" `Quick
      (fun () ->
        let accessed nest =
          let seen = Hashtbl.create 64 in
          let idx = Cf_loop.Nest.indices nest in
          Cf_loop.Nest.iter_space nest (fun iter ->
              let index v =
                let rec go k = if idx.(k) = v then iter.(k) else go (k + 1) in
                go 0
              in
              List.iter
                (fun (s : Cf_loop.Stmt.t) ->
                  List.iter
                    (fun (r : Cf_loop.Aref.t) ->
                      Hashtbl.replace seen
                        (r.Cf_loop.Aref.array,
                         Array.to_list (Cf_loop.Aref.eval index r))
                        ())
                    (s.Cf_loop.Stmt.lhs :: Cf_loop.Stmt.reads s))
                nest.Cf_loop.Nest.body);
          seen
        in
        let counting () =
          let calls = Hashtbl.create 64 in
          let init a el =
            let k = (a, Array.to_list el) in
            Hashtbl.replace calls k
              (1 + Option.value ~default:0 (Hashtbl.find_opt calls k));
            Seqexec.default_init a el
          in
          (calls, init)
        in
        let exactly_once what nest calls =
          let want = accessed nest in
          check_int (what ^ ": one call per accessed element")
            (Hashtbl.length want) (Hashtbl.length calls);
          Hashtbl.iter
            (fun k n ->
              check_bool (what ^ ": accessed") true (Hashtbl.mem want k);
              check_int (what ^ ": called once") 1 n)
            calls
        in
        List.iter
          (fun (name, nest, strategy) ->
            let plan = Cf_pipeline.Pipeline.plan ~strategy nest in
            let calls, init = counting () in
            let r =
              Parexec.execute ~init ~charge_distribution:true
                ~machine:(machine2 ()) ~placement:cyclic2 ~strategy
                plan.Cf_pipeline.Pipeline.partition
            in
            check_bool (name ^ ": validated") true (Parexec.ok r);
            exactly_once name nest calls;
            let calls, init = counting () in
            let r =
              Parexec.execute_fallback ~init
                ~machine:
                  (Cf_machine.Machine.create ~comm_mode:`Service
                     (Cf_machine.Topology.linear 2) Cf_machine.Cost.transputer)
                ~placement:cyclic2 plan.Cf_pipeline.Pipeline.partition
            in
            check_bool (name ^ " homes: validated") true (Parexec.ok r);
            exactly_once (name ^ " homes") nest calls)
          [
            ("L1", l1, Strategy.Nonduplicate);
            ("L2", l2, Strategy.Duplicate);
            ("matmul", Matmul.nest ~m:4, Strategy.Duplicate);
            ("stencil3d", Cf_workloads.Workloads.stencil_3d.build ~size:4,
             Strategy.Duplicate);
          ]);
    Alcotest.test_case "bulk and element-wise distribution agree on every kernel"
      `Quick (fun () ->
        (* Every kernel at size 6, where copies are a few elements each,
           and rank1 at 20, which gathers flat row copies. *)
        let rank1 = Cf_workloads.Workloads.rank1_update.build ~size:20 in
        let plan = Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate rank1 in
        let machine = machine2 () in
        ignore
          (Parexec.execute ~charge_distribution:true ~machine
             ~placement:cyclic2 ~strategy:Strategy.Nonduplicate
             plan.Cf_pipeline.Pipeline.partition);
        let aid = Option.get (Cf_machine.Machine.find_array_id machine "A#1") in
        check_bool "rank1@20 gathers flat copies" true
          (Cf_machine.Machine.flat_view machine ~pe:0 aid <> None);
        let oracle = Option.get (Cf_check.Oracle.find "parexec-vs-seq") in
        List.iter
          (fun (name, nest) ->
            match Cf_check.Oracle.check oracle nest with
            | Cf_check.Oracle.Pass | Cf_check.Oracle.Skip _ -> ()
            | Cf_check.Oracle.Fail msg -> Alcotest.failf "%s: %s" name msg)
          (("rank1@20", rank1)
          :: List.map
               (fun (k : Cf_workloads.Workloads.kernel) ->
                 (k.Cf_workloads.Workloads.name ^ "@6", k.build ~size:6))
               Cf_workloads.Workloads.all));
    Alcotest.test_case "a failing validation keeps its mismatch order" `Quick
      (fun () ->
        let nest =
          Cf_loop.Parse.nest
            "for i = 1 to 3\n  for j = 1 to 3\n    A[i, j] := B[i, j] + 1;\n    C[j, i] := B[i, j] * 2;\n  end\nend\n"
        in
        let plan = Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate nest in
        let m = machine2 () in
        (* Everything pre-placed on both PEs, two inputs wrong. *)
        for pe = 0 to 1 do
          for i = 1 to 3 do
            for j = 1 to 3 do
              let b =
                if (i, j) = (2, 2) || (i, j) = (3, 1) then 999
                else Seqexec.default_init "B" [| i; j |]
              in
              Cf_machine.Machine.store m ~pe "B" [| i; j |] b;
              Cf_machine.Machine.store m ~pe "A" [| i; j |] 0;
              Cf_machine.Machine.store m ~pe "C" [| j; i |] 0
            done
          done
        done;
        let r =
          Parexec.execute ~allocate:false ~machine:m ~placement:cyclic2
            ~strategy:Strategy.Nonduplicate plan.Cf_pipeline.Pipeline.partition
        in
        (* Sorted by array name, then element. *)
        check_bool "mismatches, in order" true
          (r.Parexec.mismatches
          = [
              ("A", [| 2; 2 |], Some 996, Some 1000);
              ("A", [| 3; 1 |], Some 929, Some 1000);
              ("C", [| 1; 3 |], Some 1856, Some 1998);
              ("C", [| 2; 2 |], Some 1990, Some 1998);
            ]));
  ]

let suites =
  [
    ("seqexec", seq_cases);
    ("parexec", par_cases);
    ("parexec-indexed", indexed_cases);
    ("balance", balance_cases);
    ("commcost", commcost_cases);
    ("advisor", advisor_cases);
    ("estimate", estimate_cases);
    ("matmul", matmul_cases);
    ("exec-properties", properties);
    ("exec-flat-path", flat_path_cases);
  ]
