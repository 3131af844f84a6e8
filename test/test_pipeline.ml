open Cf_pipeline
open Testutil

let pipeline_cases =
  [
    Alcotest.test_case "L1 end-to-end plan" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        check_int "parallelism" 1 (Pipeline.parallelism plan);
        check_int "blocks" 7 (Pipeline.block_count plan);
        check_bool "verified" true (Pipeline.verified plan));
    Alcotest.test_case "strategy selection changes the plan" `Quick (fun () ->
        let nondup = Pipeline.plan ~strategy:Cf_core.Strategy.Nonduplicate l2 in
        let dup = Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate l2 in
        check_int "nondup sequential" 0 (Pipeline.parallelism nondup);
        check_int "dup fully parallel" 2 (Pipeline.parallelism dup);
        check_int "dup blocks" 16 (Pipeline.block_count dup));
    Alcotest.test_case "minimal strategies populate exact analysis" `Quick
      (fun () ->
        let plan = Pipeline.plan ~strategy:Cf_core.Strategy.Min_duplicate l3 in
        check_bool "exact present" true (plan.Pipeline.exact <> None);
        check_int "parallelism" 1 (Pipeline.parallelism plan);
        let plain = Pipeline.plan l3 in
        check_bool "exact absent" true (plain.Pipeline.exact = None));
    Alcotest.test_case "simulate validates and balances" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        let sim = Pipeline.simulate ~procs:4 plan in
        check_bool "ok" true (Cf_exec.Parexec.ok sim.Pipeline.report);
        check_int "work conserved" 16
          (Array.fold_left ( + ) 0 sim.Pipeline.balance.Cf_exec.Balance.per_pe);
        check_bool "positive makespan" true (sim.Pipeline.makespan > 0.));
    Alcotest.test_case "charged distribution shows in the makespan" `Quick
      (fun () ->
        let plan = Pipeline.plan l1 in
        let free = Pipeline.simulate ~procs:4 plan in
        let charged =
          Pipeline.simulate ~procs:4 ~with_distribution:true plan
        in
        check_bool "both correct" true
          (Cf_exec.Parexec.ok free.Pipeline.report
           && Cf_exec.Parexec.ok charged.Pipeline.report);
        check_bool "distribution costs time" true
          (charged.Pipeline.makespan > free.Pipeline.makespan);
        check_bool "messages were issued" true
          (Cf_machine.Machine.message_count
             charged.Pipeline.report.Cf_exec.Parexec.machine
           > 0));
    Alcotest.test_case "a plan holds its coset index, not its members" `Quick
      (fun () ->
        (* matmul 48 under Duplicate: 2,304 blocks of 48 iterations, which
           a materialized partition holds in about 2.3M words. *)
        let module Ip = Cf_core.Iter_partition in
        let nest = Cf_exec.Matmul.nest ~m:48 in
        let plan = Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate nest in
        let words = Obj.reachable_words (Obj.repr plan) in
        check_bool (Printf.sprintf "%d words < 0.2M" words) true
          (words < 200_000);
        let renamed =
          Cf_cache.Canon.rename ~index:(fun s -> s ^ "0")
            ~array:(fun s -> "Z" ^ s) nest
        in
        let relabeled = Pipeline.relabel plan renamed in
        let c = Ip.coset plan.Pipeline.partition
        and c' = Ip.coset relabeled.Pipeline.partition in
        check_bool "relabeled index over the caller's nest" true
          (Cf_core.Coset.nest c' == renamed);
        check_bool "relabel shares the index" true
          (Cf_core.Coset.block c ~id:1 == Cf_core.Coset.block c' ~id:1);
        let alone = Obj.reachable_words (Obj.repr plan.Pipeline.partition) in
        let both =
          Obj.reachable_words
            (Obj.repr (plan.Pipeline.partition, relabeled.Pipeline.partition))
        in
        check_bool "relabel adds the renamed nest and one record" true
          (both - alone <= Obj.reachable_words (Obj.repr renamed) + 32));
    Alcotest.test_case "custom basis is honoured" `Quick (fun () ->
        let plan =
          Pipeline.plan ~basis:[ [| 1; 1; 0 |]; [| -1; 0; 1 |] ] l4
        in
        Alcotest.check
          Alcotest.(array string)
          "paper's variable names" [| "i1'"; "i2'"; "i1" |]
          (Cf_transform.Parloop.names plan.Pipeline.parloop));
    Alcotest.test_case "describe renders everything" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        let s = Format.asprintf "%a" Pipeline.describe plan in
        let contains needle =
          let nl = String.length needle and hl = String.length s in
          let rec go i =
            i + nl <= hl && (String.sub s i nl = needle || go (i + 1))
          in
          go 0
        in
        check_bool "strategy" true (contains "nonduplicate");
        check_bool "per-array spaces" true (contains "Psi_A");
        check_bool "transformed loop" true (contains "forall"));
  ]

let diagnose_cases =
  [
    Alcotest.test_case "clean loops pass" `Quick (fun () ->
        let issues = Diagnose.check l1 in
        check_bool "usable" true (Diagnose.usable issues);
        check_bool "no errors or warnings" true
          (List.for_all
             (fun (i : Diagnose.issue) -> i.severity = Diagnose.Info)
             issues));
    Alcotest.test_case "non-uniform references are an error" `Quick (fun () ->
        let bad =
          Cf_loop.Parse.nest "for i = 1 to 3\nA[2*i] := A[i] + 1;\nend"
        in
        let issues = Diagnose.check bad in
        check_bool "not usable" false (Diagnose.usable issues);
        check_bool "right code" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "nonuniform-references")
             issues));
    Alcotest.test_case "empty spaces and large spaces flagged" `Quick
      (fun () ->
        let empty = Cf_loop.Parse.nest "for i = 1 to 0\nA[i] := 1;\nend" in
        check_bool "empty is error" false (Diagnose.usable (Diagnose.check empty));
        let big =
          Cf_loop.Parse.nest "for i = 1 to 600\nfor j = 1 to 600\nA[i, j] := 1;\nend\nend"
        in
        let large nest =
          List.exists
            (fun (i : Diagnose.issue) ->
              i.code = "large-iteration-space"
              && i.severity = Diagnose.Warning)
            (Diagnose.check nest)
        in
        check_bool "large is warning" true (large big);
        (* The warning fires strictly above the exact-analysis limit. *)
        let line n =
          Cf_loop.Parse.nest
            (Printf.sprintf "for i = 1 to %d\nA[i] := 1;\nend" n)
        in
        let limit = Cf_dep.Exact.analysis_limit in
        check_bool "no warning at the limit" false (large (line limit));
        check_bool "warning one past the limit" true (large (line (limit + 1))));
    Alcotest.test_case "informational notes" `Quick (fun () ->
        check_bool "L2 singular H_A" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "singular-reference-matrix")
             (Diagnose.check l2));
        check_bool "L2 integer division" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "integer-division")
             (Diagnose.check l2));
        let tri = Cf_workloads.Workloads.triangular_rank1.build ~size:4 in
        check_bool "triangular note" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "non-rectangular")
             (Diagnose.check tri)));
    Alcotest.test_case "out-of-declared-bounds warning" `Quick (fun () ->
        let t =
          Cf_loop.Parse.nest
            "array A[1:4, 1:4];\nfor i = 1 to 4\nfor j = 1 to 4\nA[i, j] := A[i-1, j-1] + 1;\nend\nend"
        in
        check_bool "flagged" true
          (List.exists
             (fun (i : Diagnose.issue) ->
               i.code = "out-of-declared-bounds"
               && i.severity = Diagnose.Warning)
             (Diagnose.check t)));
    Alcotest.test_case "errors sort first" `Quick (fun () ->
        let bad =
          Cf_loop.Parse.nest
            "for i = 1 to 3\nA[2*i] := A[i] / 3;\nend"
        in
        match Diagnose.check bad with
        | { severity = Diagnose.Error; _ } :: _ -> ()
        | _ -> Alcotest.fail "expected error first");
  ]

let properties =
  [
    qtest "plan + simulate is communication-free and correct" ~count:30
      (fun nest ->
        let plan = Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate nest in
        Pipeline.verified plan
        &&
        let sim = Pipeline.simulate ~procs:3 plan in
        Cf_exec.Parexec.ok sim.Pipeline.report)
      arbitrary_nest;
    qtest "parallelism consistent between space and parloop" ~count:40
      (fun nest ->
        let plan = Pipeline.plan nest in
        Pipeline.parallelism plan
        = plan.Pipeline.parloop.Cf_transform.Parloop.n_forall)
      arbitrary_nest;
  ]

let suites =
  [ ("pipeline", pipeline_cases);
    ("diagnose", diagnose_cases);
    ("pipeline-properties", properties) ]
