(* Observability subsystem tests: the dependency-free JSON codec, the
   histogram copy/diff extensions, the metrics registry, and the trace
   core — sinks, clock injection, the Chrome exporter and its
   validator — plus one end-to-end timeline from a fault-injected
   parallel execution. *)

open Testutil
module Json = Cf_obs.Json
module Histogram = Cf_obs.Histogram
module Metrics = Cf_obs.Metrics
module Trace = Cf_obs.Trace

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let feq = Alcotest.(check (float 1e-9))

(* {1 JSON} *)

let json_cases =
  [
    Alcotest.test_case "round-trip through to_string/parse" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("name", Json.Str "block \"q\"\n");
              ("n", Json.Num 42.);
              ("x", Json.Num 2.5);
              ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
              ("nested", Json.Obj [ ("empty", Json.List []) ]);
            ]
        in
        match Json.parse (Json.to_string v) with
        | Ok v' -> check_bool "structurally equal" true (v = v')
        | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e));
    Alcotest.test_case "number formatting" `Quick (fun () ->
        check_string "integral" "3" (Json.to_string (Json.Num 3.));
        check_string "negative integral" "-17"
          (Json.to_string (Json.Num (-17.)));
        check_string "fractional survives round-trip" "0.5"
          (Json.to_string (Json.Num 0.5));
        check_string "nan is null" "null" (Json.to_string (Json.Num Float.nan));
        check_string "infinity is null" "null"
          (Json.to_string (Json.Num Float.infinity)));
    Alcotest.test_case "parser covers the grammar" `Quick (fun () ->
        let src = {| {"a": [1, -2.5e1, true, null, "xA\n"], "b": {}} |} in
        match Json.parse src with
        | Error e -> Alcotest.fail e
        | Ok v ->
          let a = Option.get (Json.member "a" v) in
          let items = Option.get (Json.list a) in
          check_int "array length" 5 (List.length items);
          feq "first" 1. (Option.get (Json.num (List.nth items 0)));
          feq "scientific" (-25.) (Option.get (Json.num (List.nth items 1)));
          check_string "unicode escape" "xA\n"
            (Option.get (Json.str (List.nth items 4)));
          check_bool "empty object" true (Json.member "b" v = Some (Json.Obj []));
          check_bool "missing member" true (Json.member "zz" v = None));
    Alcotest.test_case "parse errors are reported, not raised" `Quick (fun () ->
        let bad s =
          match Json.parse s with Ok _ -> false | Error _ -> true
        in
        check_bool "unterminated object" true (bad "{");
        check_bool "trailing garbage" true (bad "1 x");
        check_bool "bare word" true (bad "nope");
        check_bool "unterminated string" true (bad "\"abc"));
  ]

(* {1 Histogram (copy / diff extensions)} *)

let histogram_cases =
  [
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let h = Histogram.create () in
        Histogram.record h 1e-3;
        let snap = Histogram.copy h in
        Histogram.record h 1e-3;
        check_int "original grew" 2 (Histogram.count h);
        check_int "copy froze" 1 (Histogram.count snap));
    Alcotest.test_case "diff isolates the window" `Quick (fun () ->
        let h = Histogram.create () in
        Histogram.record h 1e-4;
        Histogram.record h 1e-4;
        let before = Histogram.copy h in
        Histogram.record h 1e-2;
        Histogram.record h 1e-2;
        Histogram.record h 1e-2;
        let w = Histogram.diff ~after:h ~before in
        check_int "window count" 3 (Histogram.count w);
        let s = Histogram.summarize w in
        (* All three window samples sit in the 10ms bucket, so every
           quantile is the exact sample value. *)
        feq "window p50" 1e-2 s.Histogram.p50;
        feq "window p99" 1e-2 s.Histogram.p99);
  ]

(* {1 Metrics registry} *)

let metrics_cases =
  [
    Alcotest.test_case "counters are get-or-create by name" `Quick (fun () ->
        let m = Metrics.create () in
        let c1 = Metrics.counter m "requests" in
        let c2 = Metrics.counter m "requests" in
        Metrics.incr c1;
        Metrics.incr ~by:4 c2;
        check_int "one underlying counter" 5 (Metrics.counter_value c1));
    Alcotest.test_case "kind mismatch raises" `Quick (fun () ->
        let m = Metrics.create () in
        ignore (Metrics.counter m "x");
        check_bool "gauge over counter rejected" true
          (match Metrics.gauge m "x" with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check_bool "histogram over counter rejected" true
          (match Metrics.histogram m "x" with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "snapshot is sorted and typed" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.set_gauge (Metrics.gauge m "z_gauge") 2.5;
        Metrics.incr ~by:3 (Metrics.counter m "a_counter");
        Metrics.observe (Metrics.histogram m "m_hist") 1e-3;
        let s = Metrics.snapshot m in
        check_bool "sorted by name" true
          (List.map fst s = [ "a_counter"; "m_hist"; "z_gauge" ]);
        check_bool "counter value" true
          (List.assoc "a_counter" s = Metrics.Counter 3);
        check_bool "gauge value" true
          (List.assoc "z_gauge" s = Metrics.Gauge 2.5);
        (match List.assoc "m_hist" s with
        | Metrics.Hist h -> check_int "hist count" 1 (Histogram.count h)
        | _ -> Alcotest.fail "m_hist is not a histogram"));
    Alcotest.test_case "snapshot copies are immune to later updates" `Quick
      (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram m "lat" in
        Metrics.observe h 1e-3;
        let s = Metrics.snapshot m in
        Metrics.observe h 1e-3;
        match List.assoc "lat" s with
        | Metrics.Hist frozen -> check_int "frozen" 1 (Histogram.count frozen)
        | _ -> Alcotest.fail "lat is not a histogram");
    Alcotest.test_case "diff subtracts counters, keeps after-gauges" `Quick
      (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m "sent" in
        let g = Metrics.gauge m "depth" in
        Metrics.incr ~by:10 c;
        Metrics.set_gauge g 1.;
        let before = Metrics.snapshot m in
        Metrics.incr ~by:7 c;
        Metrics.set_gauge g 9.;
        Metrics.incr (Metrics.counter m "fresh");
        let d = Metrics.diff ~after:(Metrics.snapshot m) ~before in
        check_bool "counter delta" true
          (List.assoc "sent" d = Metrics.Counter 7);
        check_bool "gauge takes after" true
          (List.assoc "depth" d = Metrics.Gauge 9.);
        check_bool "fresh passes through" true
          (List.assoc "fresh" d = Metrics.Counter 1));
    Alcotest.test_case "to_json exposes every metric" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.incr ~by:2 (Metrics.counter m "c");
        Metrics.observe (Metrics.histogram m "h") 1e-2;
        let j = Metrics.to_json (Metrics.snapshot m) in
        feq "counter" 2. (Option.get (Json.num (Option.get (Json.member "c" j))));
        let h = Option.get (Json.member "h" j) in
        feq "hist count" 1.
          (Option.get (Json.num (Option.get (Json.member "count" h)))));
  ]

(* {1 Trace core} *)

let fake_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun v -> t := v)

let trace_cases =
  [
    Alcotest.test_case "null trace is disabled and transparent" `Quick
      (fun () ->
        check_bool "disabled" false (Trace.enabled Trace.null);
        let calls = ref 0 in
        let r = Trace.span Trace.null "work" (fun () -> incr calls; 41) in
        check_int "span returns the result" 41 r;
        check_int "body ran once" 1 !calls;
        Trace.instant Trace.null "nothing";
        check_int "no events buffered" 0 (List.length (Trace.events Trace.null)));
    Alcotest.test_case "ring keeps the newest events and counts drops" `Quick
      (fun () ->
        let t = Trace.make (Trace.ring ~capacity:4) in
        for i = 1 to 6 do
          Trace.mark t ~lane:0 ~ts:(float_of_int i) (Printf.sprintf "e%d" i)
        done;
        let names = List.map (fun e -> e.Trace.name) (Trace.events t) in
        check_bool "oldest first, newest kept" true
          (names = [ "e3"; "e4"; "e5"; "e6" ]);
        check_int "dropped" 2 (Trace.dropped t));
    Alcotest.test_case "span measures with the injected clock" `Quick (fun () ->
        let clock, set = fake_clock () in
        let t = Trace.make ~clock (Trace.ring ~capacity:16) in
        set 10.;
        let r = Trace.span t ~cat:"plan" "phase" (fun () -> set 12.5; "done") in
        check_string "result" "done" r;
        match Trace.events t with
        | [ e ] ->
          check_string "name" "phase" e.Trace.name;
          feq "start" 10. e.Trace.ts;
          feq "duration" 2.5 (Option.get e.Trace.dur);
          check_int "default lane" Trace.planner_lane e.Trace.lane
        | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
    Alcotest.test_case "span survives exceptions" `Quick (fun () ->
        let t = Trace.make (Trace.ring ~capacity:16) in
        (match Trace.span t "boom" (fun () -> failwith "no") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "exception swallowed");
        check_int "span still emitted" 1 (List.length (Trace.events t)));
    Alcotest.test_case "chrome export validates and names lanes" `Quick
      (fun () ->
        let t = Trace.make (Trace.ring ~capacity:64) in
        (* Child first, enclosing span second with an earlier start —
           the exporter must sort so the checker sees monotone ts. *)
        Trace.complete t ~lane:0 ~cat:"compute" ~ts:2. ~dur:1. "child";
        Trace.complete t ~lane:0 ~cat:"exec" ~ts:1. ~dur:4. "parent";
        Trace.mark t ~lane:Trace.host_lane ~ts:0.5 "round";
        Trace.complete t ~lane:Trace.planner_lane ~ts:0. ~dur:0.25 "plan";
        let chrome = Trace.to_chrome ~process_name:"test" (Trace.events t) in
        (match Trace.validate_chrome chrome with
        | Ok n -> check_int "non-metadata events" 4 n
        | Error e -> Alcotest.fail e);
        check_bool "process metadata" true (contains chrome "process_name");
        check_bool "PE lane named" true (contains chrome "PE 0");
        check_bool "host lane named" true (contains chrome "host");
        check_bool "planner lane named" true (contains chrome "planner"));
    Alcotest.test_case "jsonl export is one JSON object per line" `Quick
      (fun () ->
        let t = Trace.make (Trace.ring ~capacity:16) in
        Trace.mark t ~lane:1 ~ts:1. ~args:[ ("k", Trace.Int 3) ] "a";
        Trace.complete t ~lane:2 ~ts:2. ~dur:1. "b";
        let lines =
          String.split_on_char '\n' (String.trim (Trace.to_jsonl (Trace.events t)))
        in
        check_int "two lines" 2 (List.length lines);
        List.iter
          (fun line ->
            match Json.parse line with
            | Ok v -> check_bool "has name" true (Json.member "name" v <> None)
            | Error e -> Alcotest.fail e)
          lines);
    Alcotest.test_case "export order does not depend on emission order"
      `Quick (fun () ->
        (* Two PEs emitting at the same simulated time from different
           domains: either interleaving must export the same bytes. *)
        let emit order =
          let t = Trace.make (Trace.ring ~capacity:16) in
          List.iter
            (fun lane ->
              Trace.mark t ~lane ~cat:"compile" ~ts:2. "compile";
              Trace.complete t ~lane ~cat:"compute" ~ts:2. ~dur:1. "block")
            order;
          Trace.complete t ~lane:Trace.host_lane ~ts:0. ~dur:3. "distribute";
          Trace.events t
        in
        let a = emit [ 0; 1; 2 ] and b = emit [ 2; 0; 1 ] in
        check_string "chrome" (Trace.to_chrome a) (Trace.to_chrome b);
        check_string "jsonl" (Trace.to_jsonl a) (Trace.to_jsonl b));
    Alcotest.test_case "validator rejects malformed traces" `Quick (fun () ->
        let bad s =
          match Trace.validate_chrome s with Ok _ -> false | Error _ -> true
        in
        check_bool "not json" true (bad "nope");
        check_bool "no traceEvents" true (bad "{}");
        check_bool "non-monotone lane" true
          (bad
             {|{"traceEvents": [
                 {"name":"a","ph":"i","ts":10,"pid":1,"tid":5,"s":"t"},
                 {"name":"b","ph":"i","ts":5,"pid":1,"tid":5,"s":"t"}]}|});
        check_bool "unbalanced duration events" true
          (bad
             {|{"traceEvents": [
                 {"name":"a","ph":"B","ts":1,"pid":1,"tid":2}]}|}));
  ]

(* {1 End-to-end: one coherent timeline from a fault-injected run} *)

let integration_cases =
  [
    Alcotest.test_case "planning phases land on the planner lane" `Quick
      (fun () ->
        let clock, set = fake_clock () in
        let t = Trace.make ~clock (Trace.ring ~capacity:256) in
        set 0.;
        ignore (Cf_pipeline.Pipeline.plan ~obs:t l1);
        let names = List.map (fun e -> e.Trace.name) (Trace.events t) in
        List.iter
          (fun phase ->
            check_bool (phase ^ " recorded") true (List.mem phase names))
          [ "partitioning-space"; "iter-partition"; "transform" ];
        check_bool "all on the planner lane" true
          (List.for_all
             (fun e -> e.Trace.lane = Trace.planner_lane)
             (Trace.events t)));
    Alcotest.test_case "fault-injected execution yields a full timeline" `Quick
      (fun () ->
        let nest = l5 ~m:4 in
        let psi =
          Cf_core.Strategy.partitioning_space Cf_core.Strategy.Duplicate nest
        in
        let coset = Cf_core.Coset.make nest psi in
        let trace = Trace.make (Trace.ring ~capacity:4096) in
        let spec = { Cf_fault.Fault.none with seed = 5; kills = [ (0, 3) ] } in
        let machine =
          Cf_machine.Machine.create
            ~faults:(Cf_fault.Fault.make ~procs:4 spec)
            ~obs:trace
            (Cf_machine.Topology.mesh [| 2; 2 |])
            Cf_machine.Cost.transputer
        in
        let report =
          Cf_exec.Parexec.execute_indexed ~charge_distribution:true ~machine
            ~placement:(Cf_exec.Parexec.cyclic ~nprocs:4)
            ~strategy:Cf_core.Strategy.Duplicate coset
        in
        check_bool "run recovered and validated" true
          (Cf_exec.Parexec.ok report
          && report.Cf_exec.Parexec.recovery <> None);
        let events = Trace.events trace in
        let names = List.map (fun e -> e.Trace.name) events in
        List.iter
          (fun name ->
            check_bool (name ^ " present") true (List.mem name names))
          [ "distribute"; "send"; "block"; "crash"; "resend"; "recovery" ];
        (* The crash instant sits on the dead PE's own lane. *)
        check_bool "crash on a PE lane" true
          (List.exists
             (fun e -> e.Trace.name = "crash" && e.Trace.lane >= 0)
             events);
        match Trace.validate_chrome (Trace.to_chrome events) with
        | Ok n -> check_bool "checker counts every event" true (n > 0)
        | Error e -> Alcotest.fail e);
  ]

let suites =
  [
    ("obs-json", json_cases);
    ("obs-histogram", histogram_cases);
    ("obs-metrics", metrics_cases);
    ("obs-trace", trace_cases);
    ("obs-integration", integration_cases);
  ]
