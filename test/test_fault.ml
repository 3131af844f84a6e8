(* Fault injection and crash recovery: the seeded fault plan, the
   machine's fault hooks (crashes, lossy link, checkpoints), and the
   indexed engine's round-based recovery — whose merged result must be
   bit-for-bit identical to the fault-free run. *)

open Cf_core
open Cf_exec
open Testutil
module Rng = Cf_fault.Rng
module Fault = Cf_fault.Fault
module Machine = Cf_machine.Machine
module Topology = Cf_machine.Topology
module Cost = Cf_machine.Cost

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let rng_cases =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let draw seed = List.init 32 (fun _ -> Rng.bits64 (Rng.make seed)) in
        let a = Rng.make 42 and b = Rng.make 42 in
        let sa = List.init 32 (fun _ -> Rng.bits64 a) in
        let sb = List.init 32 (fun _ -> Rng.bits64 b) in
        check_bool "identical sequences" true (sa = sb);
        check_bool "different seeds diverge" true (draw 1 <> draw 2));
    Alcotest.test_case "splitting is a fixed forest" `Quick (fun () ->
        let a = Rng.make 7 and b = Rng.make 7 in
        let ca = Rng.split a and cb = Rng.split b in
        let seq r = List.init 16 (fun _ -> Rng.bits64 r) in
        check_bool "children agree" true (seq ca = seq cb);
        check_bool "parents still agree after split" true (seq a = seq b);
        let p = Rng.make 7 in
        let c = Rng.split p in
        check_bool "child differs from parent" true (seq c <> seq p));
    Alcotest.test_case "int stays within bounds" `Quick (fun () ->
        let r = Rng.make 3 in
        List.iter
          (fun n ->
            for _ = 1 to 200 do
              let v = Rng.int r n in
              check_bool "in range" true (v >= 0 && v < n)
            done)
          [ 1; 2; 3; 10; 1000 ];
        expect_invalid "nonpositive bound" (fun () -> Rng.int r 0));
    Alcotest.test_case "float stays in [0, 1)" `Quick (fun () ->
        let r = Rng.make 11 in
        for _ = 1 to 1000 do
          let x = Rng.float r in
          check_bool "in range" true (x >= 0. && x < 1.)
        done);
    Alcotest.test_case "bool honors probability extremes" `Quick (fun () ->
        let r = Rng.make 5 in
        for _ = 1 to 100 do
          check_bool "p=0 never" false (Rng.bool r 0.);
          check_bool "p=1 always" true (Rng.bool r 1.)
        done);
  ]

let lossy_spec =
  {
    Fault.none with
    seed = 3;
    crash_rate = 0.5;
    crash_after_max = 10;
    drop_rate = 0.3;
    corrupt_rate = 0.1;
  }

let plan_cases =
  [
    Alcotest.test_case "plan is a pure function of the spec" `Quick (fun () ->
        let a = Fault.make ~procs:8 lossy_spec in
        let b = Fault.make ~procs:8 lossy_spec in
        check_bool "same crash schedule" true
          (Fault.schedule a = Fault.schedule b);
        let fates p = List.init 64 (fun _ -> Fault.deliver p) in
        check_bool "same link fates" true (fates a = fates b));
    Alcotest.test_case "explicit kills override random draws" `Quick (fun () ->
        let spec =
          {
            Fault.none with
            seed = 1;
            crash_rate = 0.9;
            crash_after_max = 5;
            kills = [ (2, 99) ];
          }
        in
        let p = Fault.make ~procs:4 spec in
        check_bool "kill honored verbatim" true
          (Fault.crash_point p ~pe:2 = Some 99));
    Alcotest.test_case "threshold zero is dead at distribution" `Quick
      (fun () ->
        let p =
          Fault.make ~procs:4 { Fault.none with kills = [ (1, 0) ] }
        in
        check_bool "pe 1 dead" true (Fault.crash_during_distribution p ~pe:1);
        check_bool "pe 0 alive" false
          (Fault.crash_during_distribution p ~pe:0);
        check_bool "schedule lists it" true
          (List.mem (1, 0) (Fault.schedule p)));
    Alcotest.test_case "spec validation" `Quick (fun () ->
        expect_invalid "kill out of range" (fun () ->
            Fault.make ~procs:4 { Fault.none with kills = [ (4, 1) ] });
        expect_invalid "negative threshold" (fun () ->
            Fault.make ~procs:4 { Fault.none with kills = [ (0, -1) ] });
        expect_invalid "rate = 1" (fun () ->
            Fault.make ~procs:4 { Fault.none with drop_rate = 1.0 });
        expect_invalid "negative rate" (fun () ->
            Fault.make ~procs:4 { Fault.none with corrupt_rate = -0.1 });
        expect_invalid "max_attempts < 1" (fun () ->
            Fault.make ~procs:4 { Fault.none with max_attempts = 0 });
        expect_invalid "crash_rate without horizon" (fun () ->
            Fault.make ~procs:4
              { Fault.none with crash_rate = 0.5; crash_after_max = 0 }));
    Alcotest.test_case "delivery is bounded by max_attempts" `Quick (fun () ->
        let p =
          Fault.make ~procs:2
            {
              Fault.none with
              seed = 17;
              drop_rate = 0.9;
              corrupt_rate = 0.05;
              max_attempts = 3;
            }
        in
        let saw_retry = ref false in
        for _ = 1 to 200 do
          let d = Fault.deliver p in
          check_bool "bounded" true (d.Fault.attempts <= 3);
          check_int "attempts = 1 + failures" d.Fault.attempts
            (1 + d.Fault.dropped + d.Fault.corrupted);
          if d.Fault.attempts > 1 then saw_retry := true
        done;
        check_bool "a 90% lossy link retries" true !saw_retry);
    Alcotest.test_case "the none spec never faults" `Quick (fun () ->
        let p = Fault.make ~procs:8 Fault.none in
        check_bool "no crashes" true (Fault.schedule p = []);
        for _ = 1 to 50 do
          let d = Fault.deliver p in
          check_bool "clean delivery" true
            (d = { Fault.attempts = 1; dropped = 0; corrupted = 0 })
        done);
  ]

let machine_cases =
  [
    Alcotest.test_case "send to a dead PE charges one attempt and raises"
      `Quick (fun () ->
        let faults =
          Fault.make ~procs:4 { Fault.none with kills = [ (2, 0) ] }
        in
        let m = Machine.create ~faults (Topology.linear 4) Cost.transputer in
        (match Machine.host_send m ~pe:2 "A" [ ([| 1 |], 5) ] with
        | () -> Alcotest.fail "expected Pe_crashed"
        | exception Machine.Pe_crashed { pe } -> check_int "pe" 2 pe);
        check_int "one message charged" 1 (Machine.message_count m);
        check_bool "time charged" true (Machine.distribution_time m > 0.);
        check_bool "nothing stored" false (Machine.holds m ~pe:2 "A" [| 1 |]);
        Machine.host_send m ~pe:1 "A" [ ([| 2 |], 6) ];
        check_int "live PE still reachable" 6 (Machine.read m ~pe:1 "A" [| 2 |]));
    Alcotest.test_case "crash threshold charges partial work and stays dead"
      `Quick (fun () ->
        let faults =
          Fault.make ~procs:2 { Fault.none with kills = [ (1, 5 ) ] }
        in
        let m = Machine.create ~faults (Topology.linear 2) Cost.transputer in
        Machine.run_iterations m ~pe:1 3;
        check_int "below threshold" 3 (Machine.iterations_of m ~pe:1);
        (match Machine.run_iterations m ~pe:1 4 with
        | () -> Alcotest.fail "expected Pe_crashed"
        | exception Machine.Pe_crashed { pe } -> check_int "pe" 1 pe);
        check_int "charged only up to the threshold" 5
          (Machine.iterations_of m ~pe:1);
        (match Machine.run_iterations m ~pe:1 1 with
        | () -> Alcotest.fail "dead PE must stay dead"
        | exception Machine.Pe_crashed _ -> ());
        check_int "no further charge" 5 (Machine.iterations_of m ~pe:1);
        Machine.run_iterations m ~pe:0 10;
        check_int "other PE unaffected" 10 (Machine.iterations_of m ~pe:0));
    Alcotest.test_case "lossy link retries are charged and counted" `Quick
      (fun () ->
        let faults =
          Fault.make ~procs:4
            {
              Fault.none with
              seed = 9;
              drop_rate = 0.4;
              corrupt_rate = 0.2;
              max_attempts = 8;
            }
        in
        let m = Machine.create ~faults (Topology.linear 4) Cost.transputer in
        for i = 0 to 29 do
          Machine.host_send m ~pe:(i mod 4) "A" [ ([| i |], i) ]
        done;
        check_bool "retries happened" true (Machine.retries m > 0);
        check_int "retries = dropped + corrupted" (Machine.retries m)
          (Machine.dropped_messages m + Machine.corrupted_messages m);
        check_bool "retransmissions cost volume" true
          (Machine.message_volume m > 30);
        check_int "payload delivered despite the noise" 13
          (Machine.read m ~pe:1 "A" [| 13 |]);
        Machine.reset_stats m;
        check_int "reset clears retries" 0 (Machine.retries m);
        check_int "reset clears drops" 0 (Machine.dropped_messages m);
        check_int "reset clears corruptions" 0 (Machine.corrupted_messages m));
    Alcotest.test_case "checkpoint restores local memories exactly" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        Machine.store m ~pe:0 "A" [| 1 |] 10;
        Machine.store m ~pe:1 "B" [| 2; 3 |] 7;
        let ckpt = Machine.checkpoint m in
        check_int "snapshot size" 2 (Machine.checkpoint_words ckpt);
        Machine.write m ~pe:0 "A" [| 1 |] 99;
        Machine.restore m ckpt;
        check_int "value rolled back" 10 (Machine.read m ~pe:0 "A" [| 1 |]);
        Machine.clear_pe m ~pe:1;
        check_bool "cleared" false (Machine.holds m ~pe:1 "B" [| 2; 3 |]);
        Machine.restore m ckpt;
        check_int "restore resurrects the cleared PE" 7
          (Machine.read m ~pe:1 "B" [| 2; 3 |]);
        let other = Machine.create (Topology.linear 3) Cost.transputer in
        expect_invalid "restore across machine sizes" (fun () ->
            Machine.restore other ckpt));
    Alcotest.test_case "recover_chunk replays a lost chunk as a charged resend"
      `Quick (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        let aid = Machine.array_id m "A" in
        Machine.store m ~pe:0 "A" [| 1 |] 10;
        Machine.store m ~pe:0 "A" [| 2 |] 20;
        let ckpt = Machine.checkpoint m in
        Machine.clear_pe m ~pe:0;
        let before = Machine.message_count m in
        let n = Machine.recover_chunk m ckpt ~from_pe:0 ~to_pe:1 ~aid in
        check_int "two words replayed" 2 n;
        check_int "replica landed" 10 (Machine.read m ~pe:1 "A" [| 1 |]);
        check_int "as a host message" (before + 1) (Machine.message_count m);
        check_bool "traced as a resend" true
          (List.exists
             (function
               | Machine.Resend { pe = 1; array = "A"; size = 2 } -> true
               | _ -> false)
             (Machine.trace m));
        check_int "empty source replays nothing" 0
          (Machine.recover_chunk m ckpt ~from_pe:1 ~to_pe:0 ~aid));
    Alcotest.test_case "compact donates pre-promotion tables as a free base"
      `Quick (fun () ->
        (* On a fault-carrying machine the compactor seeds the delta
           chain with the sparse tables promotion orphans, so the
           mandatory post-distribution checkpoint costs zero copies. *)
        let faults = Fault.make ~procs:2 Fault.none in
        let m = Machine.create ~faults (Topology.linear 2) Cost.transputer in
        for i = 0 to 5 do
          for j = 0 to 5 do
            Machine.store m ~pe:0 "A" [| i; j |] ((10 * i) + j)
          done
        done;
        Machine.store m ~pe:1 "B" [| 0 |] 7;
        Machine.compact m;
        let c0 = Machine.checkpoint m in
        check_int "post-compact checkpoint is free" 0
          (Machine.checkpoint_words c0);
        Machine.write m ~pe:0 "A" [| 2; 2 |] 999;
        let c1 = Machine.checkpoint m in
        check_int "next delta pays one word" 1 (Machine.checkpoint_words c1);
        Machine.write m ~pe:0 "A" [| 2; 2 |] 0;
        Machine.write m ~pe:0 "A" [| 3; 3 |] 0;
        Machine.restore m c0;
        check_int "donated base replays the distributed state" 33
          (Machine.read m ~pe:0 "A" [| 3; 3 |]);
        check_int "donated base covers every PE" 7
          (Machine.read m ~pe:1 "B" [| 0 |]);
        check_int "pre-checkpoint value intact" 22
          (Machine.read m ~pe:0 "A" [| 2; 2 |]));
  ]

(* --- Recovery identity: the crux of the fault layer.  Both the
   fault-free and the faulted run validate bit-for-bit against the same
   sequential golden run, so empty mismatch lists in both prove the
   recovered result identical to the fault-free one. --- *)

let nprocs = 4

let stencil_nest =
  let k =
    List.find
      (fun k -> k.Cf_workloads.Workloads.name = "stencil3d")
      Cf_workloads.Workloads.all
  in
  k.Cf_workloads.Workloads.build ~size:4

let run ?faults ~strategy nest =
  let psi = Strategy.partitioning_space strategy nest in
  let coset = Coset.make nest psi in
  let machine =
    Machine.create ?faults (Topology.linear nprocs) Cost.transputer
  in
  Parexec.execute_indexed ~charge_distribution:true ~machine
    ~placement:(Parexec.cyclic ~nprocs) ~strategy coset

let identity_case (wname, nest) strategy =
  Alcotest.test_case
    (Printf.sprintf "recovery identity: %s under %s" wname
       (Strategy.to_string strategy))
    `Quick
    (fun () ->
      let base = run ~strategy nest in
      check_bool "fault-free run valid" true (Parexec.ok base);
      check_bool "no recovery record without a plan" true
        (base.Parexec.recovery = None);
      let faults =
        Fault.make ~procs:nprocs
          { Fault.none with seed = 11; kills = [ (0, 3) ] }
      in
      let r = run ~faults ~strategy nest in
      check_bool "recovered output identical to fault-free" true
        (Parexec.ok r);
      match r.Parexec.recovery with
      | None -> Alcotest.fail "faulted run must report recovery"
      | Some rc ->
        check_bool "PE 0 crashed" true (List.mem 0 rc.Parexec.crashed_pes);
        check_bool "blocks were replayed" true (rc.Parexec.replayed_blocks > 0);
        check_bool "an extra round ran" true (rc.Parexec.rounds >= 2);
        check_bool "checkpoint data was redistributed" true
          (rc.Parexec.redistributed_words > 0))

let recovery_cases =
  List.concat_map
    (fun workload -> List.map (identity_case workload) Strategy.all)
    [ ("matmul L5 (m=4)", Matmul.nest ~m:4); ("stencil_3d (4^3)", stencil_nest) ]

(* --- Per-round checkpoint cadence: refreshing the snapshot every
   round must leave recovery bit-for-bit identical, whether the refresh
   is a delta capture or a full deep copy; the two modes may differ
   only in the words they capture. --- *)

let cadence_case (wname, nest) =
  Alcotest.test_case
    (Printf.sprintf "checkpoint_every:1 recovers bit-for-bit on %s" wname)
    `Quick
    (fun () ->
      let strategy = Strategy.Duplicate in
      let spec =
        { Fault.none with seed = 11; kills = [ (0, 3); (1, 5) ] }
      in
      let run mode =
        let faults = Fault.make ~procs:nprocs spec in
        let psi = Strategy.partitioning_space strategy nest in
        let coset = Coset.make nest psi in
        let machine =
          Machine.create ~faults (Topology.linear nprocs) Cost.transputer
        in
        Parexec.execute_indexed ~charge_distribution:true ~checkpoint_every:1
          ~checkpoint_mode:mode ~machine
          ~placement:(Parexec.cyclic ~nprocs) ~strategy coset
      in
      let rd = run `Delta in
      let rf = run `Full in
      check_bool "delta-checkpointed recovery identical to sequential" true
        (Parexec.ok rd);
      check_bool "full-checkpointed recovery identical to sequential" true
        (Parexec.ok rf);
      match (rd.Parexec.recovery, rf.Parexec.recovery) with
      | Some d, Some f ->
        check_bool "mid-run crashes forced extra rounds" true
          (d.Parexec.rounds >= 2);
        check_bool "the cadence refreshed the snapshot" true
          (d.Parexec.checkpoints >= 2);
        check_int "same rounds either mode" f.Parexec.rounds d.Parexec.rounds;
        check_int "same replayed blocks" f.Parexec.replayed_blocks
          d.Parexec.replayed_blocks;
        check_int "same redistributed words" f.Parexec.redistributed_words
          d.Parexec.redistributed_words;
        check_int "same checkpoint count" f.Parexec.checkpoints
          d.Parexec.checkpoints;
        check_bool "deltas capture strictly less than full copies" true
          (d.Parexec.checkpoint_words < f.Parexec.checkpoint_words);
        check_bool "per-PE work identical" true
          (rd.Parexec.per_pe_iterations = rf.Parexec.per_pe_iterations)
      | _ -> Alcotest.fail "faulted runs must report recovery")

let cadence_cases =
  List.map cadence_case
    [ ("matmul L5 (m=4)", Matmul.nest ~m:4); ("stencil_3d (4^3)", stencil_nest) ]
  @ [
      Alcotest.test_case "cadence guard rail" `Quick (fun () ->
          let nest = Matmul.nest ~m:3 in
          let strategy = Strategy.Duplicate in
          let psi = Strategy.partitioning_space strategy nest in
          expect_invalid "negative checkpoint_every" (fun () ->
              let machine =
                Machine.create (Topology.linear 2) Cost.transputer
              in
              Parexec.execute_indexed ~checkpoint_every:(-1) ~machine
                ~placement:(Parexec.cyclic ~nprocs:2)
                ~strategy (Coset.make nest psi)));
    ]

let reproducibility_cases =
  [
    Alcotest.test_case "same seed, same schedule, same metrics" `Quick
      (fun () ->
        let spec =
          {
            Fault.none with
            seed = 5;
            kills = [ (0, 3) ];
            drop_rate = 0.2;
            corrupt_rate = 0.05;
            max_attempts = 8;
          }
        in
        let go () =
          let faults = Fault.make ~procs:nprocs spec in
          let r =
            run ~faults ~strategy:Strategy.Duplicate (Matmul.nest ~m:4)
          in
          ( Machine.makespan r.Parexec.machine,
            Machine.retries r.Parexec.machine,
            r.Parexec.recovery,
            r.Parexec.per_pe_iterations )
        in
        let m1, ret1, rec1, it1 = go () in
        let m2, ret2, rec2, it2 = go () in
        check_bool "identical makespan" true (m1 = m2);
        check_int "identical retries" ret1 ret2;
        check_bool "identical recovery record" true (rec1 = rec2);
        check_bool "identical per-PE work" true (it1 = it2));
    Alcotest.test_case "PE dead at distribution is recovered" `Quick (fun () ->
        let faults =
          Fault.make ~procs:nprocs { Fault.none with kills = [ (2, 0) ] }
        in
        let r = run ~faults ~strategy:Strategy.Duplicate (Matmul.nest ~m:4) in
        check_bool "recovered" true (Parexec.ok r);
        match r.Parexec.recovery with
        | None -> Alcotest.fail "expected a recovery record"
        | Some rc ->
          check_bool "PE 2 crashed" true (List.mem 2 rc.Parexec.crashed_pes);
          (* Blocks are reassigned before the first round even starts,
             so nothing is replayed — the dead PE just does no work. *)
          check_int "dead PE computed nothing" 0
            r.Parexec.per_pe_iterations.(2);
          check_bool "survivors absorbed the work" true
            (Array.exists (fun n -> n > 0) r.Parexec.per_pe_iterations));
    Alcotest.test_case "guard rails" `Quick (fun () ->
        let nest = Matmul.nest ~m:3 in
        let strategy = Strategy.Duplicate in
        let psi = Strategy.partitioning_space strategy nest in
        let faults =
          Fault.make ~procs:2 { Fault.none with kills = [ (0, 1) ] }
        in
        (* [execute] is the engine's block-local entry point, so it
           recovers like [execute_indexed]. *)
        (let machine =
           Machine.create ~faults (Topology.linear 2) Cost.transputer
         in
         let r =
           Parexec.execute ~machine
             ~placement:(Parexec.cyclic ~nprocs:2)
             ~strategy
             (Iter_partition.make nest psi)
         in
         check_bool "execute recovers" true (Parexec.ok r);
         check_bool "execute reports the crash" true
           (match r.Parexec.recovery with
           | Some rc -> rc.Parexec.crashed_pes = [ 0 ]
           | None -> false));
        expect_invalid "execute_fallback refuses fault plans" (fun () ->
            let machine =
              Machine.create ~faults ~comm_mode:`Service (Topology.linear 2)
                Cost.transputer
            in
            Parexec.execute_fallback ~machine
              ~placement:(Parexec.cyclic ~nprocs:2)
              (Iter_partition.make nest psi));
        expect_invalid "recovery needs the engine to allocate" (fun () ->
            let machine =
              Machine.create ~faults (Topology.linear 2) Cost.transputer
            in
            Parexec.execute_indexed ~allocate:false ~machine
              ~placement:(Parexec.cyclic ~nprocs:2)
              ~strategy (Coset.make nest psi));
        expect_invalid "no survivors, no recovery" (fun () ->
            let faults =
              Fault.make ~procs:2
                { Fault.none with kills = [ (0, 0); (1, 0) ] }
            in
            let machine =
              Machine.create ~faults (Topology.linear 2) Cost.transputer
            in
            Parexec.execute_indexed ~charge_distribution:true ~machine
              ~placement:(Parexec.cyclic ~nprocs:2)
              ~strategy (Coset.make nest psi)));
  ]

let suites =
  [
    ("fault.rng", rng_cases);
    ("fault.plan", plan_cases);
    ("fault.machine", machine_cases);
    ("fault.recovery", recovery_cases @ cadence_cases @ reproducibility_cases);
  ]
