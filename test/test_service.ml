(* Worker-pool tests: deterministic answers under concurrency,
   backpressure rejection, timeout paths, and lifecycle. *)

open Testutil
open Cf_service
module Histogram = Cf_obs.Histogram

let describe plan = Format.asprintf "%a" Cf_pipeline.Pipeline.describe plan

(* A workload mixing all paper loops across all strategies. *)
let workload =
  List.concat_map
    (fun strategy ->
      List.map (fun (name, nest) -> (name, strategy, nest)) all_paper_loops)
    Cf_core.Strategy.all

let deterministic_cases =
  [
    Alcotest.test_case "4-domain answers equal sequential plan" `Quick
      (fun () ->
        (* Queue sized to the workload: submit is non-blocking, and on a
           single-CPU box the workers may not drain ahead of submission. *)
        let svc =
          Service.create ~domains:4 ~queue_depth:(List.length workload) ()
        in
        let tickets =
          List.map
            (fun (name, strategy, nest) ->
              (name, strategy, nest, Service.submit ~strategy svc nest))
            workload
        in
        List.iter
          (fun (name, strategy, nest, ticket) ->
            let tag =
              Printf.sprintf "%s/%s" name (Cf_core.Strategy.to_string strategy)
            in
            match Service.await ticket with
            | Service.Done c ->
              check_string tag
                (describe (Cf_pipeline.Pipeline.plan ~strategy nest))
                (describe c.Service.plan)
            | o ->
              Alcotest.failf "%s: unexpected outcome %a" tag
                Service.pp_outcome o)
          tickets;
        let s = Service.stats svc in
        check_int "all completed" (List.length workload) s.Service.completed;
        check_int "none rejected" 0 s.Service.rejected;
        check_int "none failed" 0 s.Service.failed;
        Service.shutdown svc);
    Alcotest.test_case "plan_many keeps input order and hits cache" `Quick
      (fun () ->
        let svc = Service.create ~domains:2 ~queue_depth:2 () in
        (* Batch bigger than the queue: plan_many must block for space
           rather than reject. *)
        let nests =
          List.concat (List.init 4 (fun _ -> List.map snd all_paper_loops))
        in
        let outcomes = Service.plan_many svc nests in
        check_int "one outcome per nest" (List.length nests)
          (List.length outcomes);
        List.iter2
          (fun nest outcome ->
            match outcome with
            | Service.Done c ->
              check_string "matches sequential"
                (describe (Cf_pipeline.Pipeline.plan nest))
                (describe c.Service.plan)
            | o ->
              Alcotest.failf "unexpected outcome %a" Service.pp_outcome o)
          nests outcomes;
        let s = Service.stats svc in
        (match s.Service.cache with
        | None -> Alcotest.fail "cache expected on"
        | Some c ->
          check_bool "repeats were cache hits" true
            (c.Cf_cache.Memo.hits >= 3 * List.length all_paper_loops));
        Service.shutdown svc);
    Alcotest.test_case "cache off still answers correctly" `Quick (fun () ->
        let svc = Service.create ~domains:2 ~cache:None () in
        (match Service.plan_one svc l1 with
        | Service.Done c ->
          check_bool "no hit possible" false c.Service.cache_hit;
          check_string "matches sequential"
            (describe (Cf_pipeline.Pipeline.plan l1))
            (describe c.Service.plan)
        | o -> Alcotest.failf "unexpected outcome %a" Service.pp_outcome o);
        check_bool "no cache stats" true
          ((Service.stats svc).Service.cache = None);
        Service.shutdown svc);
  ]

(* Occupy every worker with slow requests (exact analysis of a larger
   matmul), so queue/deadline behavior is observable deterministically. *)
(* Slow enough (~10ms) that tests can observe it in flight even on a
   fast box polling at 1ms. *)
let slow_nest = Cf_exec.Matmul.nest ~m:12
let slow_strategy = Cf_core.Strategy.Min_duplicate

let wait_until ?(attempts = 2000) pred =
  let rec go n =
    if pred () then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.001;
      go (n - 1)
    end
  in
  go attempts

let pressure_cases =
  [
    Alcotest.test_case "full queue rejects, draining accepts again" `Quick
      (fun () ->
        let svc =
          Service.create ~domains:1 ~queue_depth:1 ~cache:None ()
        in
        let busy = Service.submit ~strategy:slow_strategy svc slow_nest in
        check_bool "worker picked up the slow job" true
          (wait_until (fun () -> (Service.stats svc).Service.in_flight = 1));
        let queued = Service.submit svc l1 in
        let overflow = Service.submit svc l2 in
        (match Service.await overflow with
        | Service.Rejected -> ()
        | o ->
          Alcotest.failf "expected rejection, got %a" Service.pp_outcome o);
        (* Once the backlog drains, the queue accepts again. *)
        (match (Service.await busy, Service.await queued) with
        | Service.Done _, Service.Done _ -> ()
        | a, b ->
          Alcotest.failf "backlog failed: %a / %a" Service.pp_outcome a
            Service.pp_outcome b);
        (match Service.plan_one svc l2 with
        | Service.Done _ -> ()
        | o -> Alcotest.failf "after drain: %a" Service.pp_outcome o);
        let s = Service.stats svc in
        check_int "one rejection" 1 s.Service.rejected;
        check_int "three completions" 3 s.Service.completed;
        check_int "hwm saw the full queue" 1 s.Service.queue_hwm;
        Service.shutdown svc);
    Alcotest.test_case "expired deadline times out" `Quick (fun () ->
        let svc = Service.create ~domains:1 ~cache:None () in
        (* timeout 0: the deadline has passed before any worker can
           reach the job, deterministically. *)
        (match Service.plan_one ~timeout:0. svc l1 with
        | Service.Timed_out -> ()
        | o -> Alcotest.failf "expected timeout, got %a" Service.pp_outcome o);
        (* A generous deadline completes normally. *)
        (match Service.plan_one ~timeout:60. svc l1 with
        | Service.Done _ -> ()
        | o -> Alcotest.failf "expected done, got %a" Service.pp_outcome o);
        let s = Service.stats svc in
        check_int "one timeout" 1 s.Service.timed_out;
        check_int "one completion" 1 s.Service.completed;
        Service.shutdown svc);
    Alcotest.test_case "queued jobs behind a slow one time out" `Quick
      (fun () ->
        let svc =
          Service.create ~domains:1 ~queue_depth:4 ~cache:None ()
        in
        let busy = Service.submit ~strategy:slow_strategy svc slow_nest in
        check_bool "worker busy" true
          (wait_until (fun () -> (Service.stats svc).Service.in_flight = 1));
        (* These sit behind the slow job with already-expired deadlines,
           so the worker reports Timed_out without planning them. *)
        let doomed =
          List.init 3 (fun _ -> Service.submit ~timeout:0. svc l1)
        in
        List.iter
          (fun t ->
            match Service.await t with
            | Service.Timed_out -> ()
            | o ->
              Alcotest.failf "expected timeout, got %a" Service.pp_outcome o)
          doomed;
        (match Service.await busy with
        | Service.Done _ -> ()
        | o -> Alcotest.failf "slow job: %a" Service.pp_outcome o);
        check_int "timeouts counted" 3 (Service.stats svc).Service.timed_out;
        Service.shutdown svc);
  ]

let lifecycle_cases =
  [
    Alcotest.test_case "failure is isolated and reported" `Quick (fun () ->
        let svc = Service.create ~domains:2 ~cache:None () in
        (* A non-uniformly-generated nest makes the planner raise; the
           service must report Failed and keep serving. *)
        let bad =
          Cf_loop.Parse.nest "for i = 1 to 4\n  A[i] := A[i, 1] + 1;\nend"
        in
        (match Service.plan_one svc bad with
        | Service.Failed _ -> ()
        | o -> Alcotest.failf "expected failure, got %a" Service.pp_outcome o);
        (match Service.plan_one svc l1 with
        | Service.Done _ -> ()
        | o -> Alcotest.failf "service wedged: %a" Service.pp_outcome o);
        let s = Service.stats svc in
        check_int "one failure" 1 s.Service.failed;
        check_int "one completion" 1 s.Service.completed;
        Service.shutdown svc);
    Alcotest.test_case "drain waits for quiet; shutdown rejects" `Quick
      (fun () ->
        let svc = Service.create ~domains:2 ~queue_depth:8 () in
        let tickets = List.map (fun (_, n) -> Service.submit svc n) all_paper_loops in
        Service.drain svc;
        let s = Service.stats svc in
        check_int "drained queue" 0 s.Service.queue_depth;
        check_int "nothing in flight" 0 s.Service.in_flight;
        check_int "all done" (List.length tickets) s.Service.completed;
        List.iter
          (fun t ->
            match Service.await t with
            | Service.Done _ -> ()
            | o -> Alcotest.failf "after drain: %a" Service.pp_outcome o)
          tickets;
        Service.shutdown svc;
        (match Service.plan_one svc l1 with
        | Service.Rejected -> ()
        | o ->
          Alcotest.failf "post-shutdown should reject, got %a"
            Service.pp_outcome o);
        (* Idempotent. *)
        Service.shutdown svc);
    Alcotest.test_case "stats snapshot is coherent" `Quick (fun () ->
        let svc = Service.create ~domains:2 () in
        ignore (Service.plan_many svc (List.map snd all_paper_loops));
        let s = Service.stats svc in
        check_int "domains" 2 s.Service.domains;
        check_int "submitted" (List.length all_paper_loops) s.Service.submitted;
        check_int "latency samples" s.Service.completed
          s.Service.latency.Histogram.count;
        check_bool "p50 <= p95 <= p99" true
          (s.Service.latency.Histogram.p50 <= s.Service.latency.Histogram.p95
          && s.Service.latency.Histogram.p95
             <= s.Service.latency.Histogram.p99);
        check_bool "throughput positive" true (s.Service.throughput > 0.);
        ignore (Format.asprintf "%a" Service.pp_stats s);
        Service.shutdown svc);
  ]

(* --- Resilience: supervisor restarts, circuit breaker, retry. --- *)

let bad_nest =
  lazy (Cf_loop.Parse.nest "for i = 1 to 4\n  A[i] := A[i, 1] + 1;\nend")

let expect name expected o =
  let tag = function
    | Service.Done _ -> "done"
    | Service.Failed _ -> "failed"
    | Service.Rejected -> "rejected"
    | Service.Timed_out -> "timed-out"
    | Service.Tripped -> "tripped"
  in
  if tag o <> expected then
    Alcotest.failf "%s: expected %s, got %a" name expected Service.pp_outcome o

let resilience_cases =
  [
    Alcotest.test_case "supervisor replaces a crashed worker" `Quick (fun () ->
        let svc = Service.create ~domains:2 ~queue_depth:8 () in
        Service.inject_worker_crash svc;
        (* The injection fires on the next worker wake-up; wait for the
           supervisor to record it. *)
        let rec wait n =
          let h = Service.health svc in
          if h.Service.worker_crashes >= 1 || n = 0 then h
          else begin
            Unix.sleepf 0.001;
            wait (n - 1)
          end
        in
        let h = wait 5000 in
        check_int "crash recorded" 1 h.Service.worker_crashes;
        check_int "worker restarted" 1 h.Service.worker_restarts;
        check_int "full capacity restored" 2 h.Service.live_domains;
        check_int "sized as created" 2 h.Service.total_domains;
        check_bool "still ready" true h.Service.ready;
        expect "service still plans" "done" (Service.plan_one svc l1);
        ignore (Format.asprintf "%a" Service.pp_health h);
        Service.shutdown svc;
        check_bool "not ready after shutdown" false
          (Service.health svc).Service.ready);
    Alcotest.test_case "breaker trips, fast-fails, half-opens, recloses"
      `Quick (fun () ->
        (* One worker makes the admit/note sequence strictly serial. *)
        let svc =
          Service.create ~domains:1
            ~breaker:(Some { Service.failure_threshold = 2; open_budget = 2 })
            ()
        in
        let strategy = Cf_core.Strategy.Duplicate in
        let bad () = Service.plan_one ~strategy svc (Lazy.force bad_nest) in
        let good () = Service.plan_one ~strategy svc l1 in
        expect "1st failure" "failed" (bad ());
        expect "2nd failure trips the breaker" "failed" (bad ());
        expect "open: fast-fail" "tripped" (bad ());
        expect "budget spent: probe runs and fails" "failed" (bad ());
        expect "reopened: fast-fail again" "tripped" (good ());
        expect "probe succeeds and recloses" "done" (good ());
        expect "closed again" "done" (good ());
        (* Breakers are per strategy: Duplicate's trips never touched
           Nonduplicate's. *)
        expect "other strategy unaffected" "failed"
          (Service.plan_one ~strategy:Cf_core.Strategy.Nonduplicate svc
             (Lazy.force bad_nest));
        let s = Service.stats svc in
        check_int "tripped count" 2 s.Service.tripped;
        check_int "failed count" 4 s.Service.failed;
        let snap =
          List.find
            (fun b -> b.Service.strategy = strategy)
            s.Service.health.Service.breaker_states
        in
        check_int "two closed->open transitions" 2 snap.Service.trips;
        check_bool "breaker closed at rest" true
          (snap.Service.state = Service.Breaker_closed 0);
        Service.shutdown svc);
    Alcotest.test_case "breaker disabled never trips" `Quick (fun () ->
        let svc = Service.create ~domains:1 ~breaker:None () in
        for i = 1 to 5 do
          expect
            (Printf.sprintf "failure %d" i)
            "failed"
            (Service.plan_one svc (Lazy.force bad_nest))
        done;
        let s = Service.stats svc in
        check_int "never tripped" 0 s.Service.tripped;
        check_bool "no breaker snapshots" true
          (s.Service.health.Service.breaker_states = []);
        Service.shutdown svc);
    Alcotest.test_case "plan_retry passes outcomes through" `Quick (fun () ->
        let svc = Service.create ~domains:2 () in
        (match Service.plan_retry ~max_attempts:0 svc l1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "max_attempts 0 must be rejected");
        (match Service.plan_retry ~backoff:(-1.) svc l1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "negative backoff must be rejected");
        expect "success needs no retry" "done" (Service.plan_retry svc l1);
        expect "failures are not retried" "failed"
          (Service.plan_retry svc (Lazy.force bad_nest));
        Service.shutdown svc;
        (* Shut down: the rejection is permanent, so retrying stops
           immediately instead of sleeping through the backoff. *)
        expect "permanent rejection" "rejected"
          (Service.plan_retry ~max_attempts:50 svc l1));
    Alcotest.test_case "shutdown twice, drain any time" `Quick (fun () ->
        let svc = Service.create ~domains:2 ~queue_depth:4 () in
        (* Drain concurrently with submissions: must neither raise nor
           deadlock, and later submissions still complete. *)
        let drainers =
          Array.init 2 (fun _ -> Domain.spawn (fun () -> Service.drain svc))
        in
        let outs = Service.plan_many svc (List.map snd all_paper_loops) in
        Array.iter Domain.join drainers;
        List.iteri
          (fun i o -> expect (Printf.sprintf "job %d" i) "done" o)
          outs;
        Service.drain svc;
        expect "open after drains" "done" (Service.plan_one svc l1);
        Service.shutdown svc;
        Service.shutdown svc;
        Service.drain svc;
        expect "rejects after shutdown" "rejected" (Service.plan_one svc l1));
  ]

(* --- Histogram quantile edge cases, pinned. --- *)

let feq = Alcotest.(check (float 1e-9))

let histogram_cases =
  [
    Alcotest.test_case "empty histogram summarizes to zero" `Quick (fun () ->
        let h = Histogram.create () in
        check_int "count" 0 (Histogram.count h);
        feq "quantile" 0. (Histogram.quantile h 0.5);
        let s = Histogram.summarize h in
        check_int "summary count" 0 s.Histogram.count;
        feq "mean" 0. s.Histogram.mean;
        feq "min" 0. s.Histogram.min;
        feq "max" 0. s.Histogram.max;
        feq "p50" 0. s.Histogram.p50;
        feq "p99" 0. s.Histogram.p99);
    Alcotest.test_case "single sample pins every quantile" `Quick (fun () ->
        let h = Histogram.create () in
        Histogram.record h 0.004;
        let s = Histogram.summarize h in
        check_int "count" 1 s.Histogram.count;
        feq "mean" 0.004 s.Histogram.mean;
        feq "min" 0.004 s.Histogram.min;
        feq "max" 0.004 s.Histogram.max;
        (* min = max clamps the bucket midpoint to the sample itself. *)
        feq "p50" 0.004 s.Histogram.p50;
        feq "p95" 0.004 s.Histogram.p95;
        feq "p99" 0.004 s.Histogram.p99;
        feq "q=0 clamps" 0.004 (Histogram.quantile h (-1.));
        feq "q=1 clamps" 0.004 (Histogram.quantile h 2.));
    Alcotest.test_case "identical samples collapse to one bucket" `Quick
      (fun () ->
        let h = Histogram.create () in
        for _ = 1 to 7 do
          Histogram.record h 0.02
        done;
        let s = Histogram.summarize h in
        check_int "count" 7 s.Histogram.count;
        feq "mean" 0.02 s.Histogram.mean;
        feq "p50" 0.02 s.Histogram.p50;
        feq "p95" 0.02 s.Histogram.p95;
        feq "p99" 0.02 s.Histogram.p99);
  ]

(* --- Half-open probing under concurrent submissions. --- *)

let half_open_cases =
  [
    Alcotest.test_case "concurrent submissions trip while the probe runs"
      `Quick (fun () ->
        (* Two workers: one runs the (slow) half-open probe while the
           other keeps popping concurrent submissions — every one of
           them must fast-fail [Tripped]; only the probe touches the
           planner, and its success recloses the breaker.  The strategy
           must be one the bad nest actually fails under (the min-*
           tiers accept it), and the probe slow enough (~30ms) to still
           be in flight while the concurrent batch resolves. *)
        let strategy = Cf_core.Strategy.Duplicate in
        let probe_nest = Cf_exec.Matmul.nest ~m:24 in
        let svc =
          Service.create ~domains:2 ~queue_depth:16 ~cache:None
            ~breaker:(Some { Service.failure_threshold = 1; open_budget = 1 })
            ()
        in
        let breaker_state () =
          (List.find
             (fun b -> b.Service.strategy = strategy)
             (Service.health svc).Service.breaker_states)
            .Service.state
        in
        expect "single failure trips" "failed"
          (Service.plan_one ~strategy svc (Lazy.force bad_nest));
        check_bool "breaker open" true
          (match breaker_state () with
          | Service.Breaker_open _ -> true
          | _ -> false);
        (* Budget 1: this submission spends it and becomes the probe. *)
        let probe = Service.submit ~strategy svc probe_nest in
        check_bool "probe admitted half-open" true
          (wait_until (fun () -> breaker_state () = Service.Breaker_half_open));
        let concurrent =
          List.init 4 (fun _ -> Service.submit ~strategy svc l1)
        in
        List.iteri
          (fun i ticket ->
            expect
              (Printf.sprintf "concurrent submission %d" i)
              "tripped" (Service.await ticket))
          concurrent;
        check_bool "still probing while others tripped" true
          (breaker_state () = Service.Breaker_half_open);
        expect "probe succeeds" "done" (Service.await probe);
        check_bool "probe success recloses" true
          (breaker_state () = Service.Breaker_closed 0);
        expect "closed: requests plan again" "done"
          (Service.plan_one ~strategy svc l1);
        let snap =
          List.find
            (fun b -> b.Service.strategy = strategy)
            (Service.stats svc).Service.health.Service.breaker_states
        in
        check_int "exactly one trip" 1 snap.Service.trips;
        check_int "all concurrents fast-failed" 4
          (Service.stats svc).Service.tripped;
        Service.shutdown svc);
  ]

(* --- Seeded retry jitter. --- *)

let jitter_cases =
  [
    Alcotest.test_case "retry_delay is deterministic per seed" `Quick
      (fun () ->
        let delays seed =
          let rng = Cf_fault.Rng.make seed in
          List.init 5 (fun i ->
              Service.retry_delay ~backoff:0.001 ~jitter:0.1 rng (i + 1))
        in
        check_bool "same seed, same schedule" true (delays 42 = delays 42);
        check_bool "different seed, different schedule" true
          (delays 42 <> delays 43));
    Alcotest.test_case "retry_delay bounds" `Quick (fun () ->
        let rng = Cf_fault.Rng.make 7 in
        for attempt = 1 to 6 do
          let base = 0.001 *. float_of_int (1 lsl (attempt - 1)) in
          let d = Service.retry_delay ~backoff:0.001 ~jitter:0.1 rng attempt in
          check_bool
            (Printf.sprintf "attempt %d: >= backoff ramp" attempt)
            true
            (d >= min 0.1 base);
          check_bool
            (Printf.sprintf "attempt %d: <= ramp + 10%% jitter" attempt)
            true
            (d <= min 0.1 (base *. 1.1))
        done;
        (* The cap holds no matter how far the ramp has climbed. *)
        feq "capped at 100ms"
          0.1
          (Service.retry_delay ~backoff:0.001 ~jitter:0.1 rng 30);
        feq "jitter 0 is the pure ramp" 0.002
          (Service.retry_delay ~backoff:0.001 ~jitter:0. rng 2);
        (match Service.retry_delay rng 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "attempt 0 must be rejected");
        (match Service.retry_delay ~jitter:(-0.5) rng 1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "negative jitter must be rejected"));
    Alcotest.test_case "plan_retry takes a pinned jitter seed" `Quick
      (fun () ->
        let svc = Service.create ~domains:1 () in
        expect "seeded retry still plans" "done"
          (Service.plan_retry ~jitter_seed:1234 svc l1);
        (match Service.plan_retry ~jitter:(-1.) svc l1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "negative jitter must be rejected");
        Service.shutdown svc);
  ]

(* Single-flight planning: concurrent misses on one key cost one plan. *)
let single_flight_cases =
  [
    Alcotest.test_case "8 identical requests on 4 domains miss once" `Quick
      (fun () ->
        let svc = Service.create ~domains:4 ~queue_depth:8 () in
        let nest = l5 ~m:4 in
        let outcomes = Service.plan_many svc (List.init 8 (fun _ -> nest)) in
        List.iter
          (function
            | Service.Done c ->
              check_string "matches sequential"
                (describe (Cf_pipeline.Pipeline.plan nest))
                (describe c.Service.plan)
            | o -> Alcotest.failf "unexpected outcome %a" Service.pp_outcome o)
          outcomes;
        check_int "one cold answer" 1
          (List.length
             (List.filter
                (function
                  | Service.Done c -> not c.Service.cache_hit | _ -> false)
                outcomes));
        (match (Service.stats svc).Service.cache with
        | None -> Alcotest.fail "cache expected on"
        | Some c ->
          check_int "exactly one miss" 1 c.Cf_cache.Memo.misses;
          check_int "the rest hit" 7 c.Cf_cache.Memo.hits);
        Service.shutdown svc);
    Alcotest.test_case "a raising leader wakes its waiters" `Quick (fun () ->
        (* Non-uniformly generated: planning raises, so every request
           leads in turn and must fail rather than wait forever. *)
        let bad =
          Cf_loop.Parse.nest "for i = 1 to 4\n  A[i, i] := A[i+1, 2*i] + 1;\nend\n"
        in
        let planner = Planner.create () in
        let start = Atomic.make 0 in
        let request () =
          Atomic.incr start;
          while Atomic.get start < 4 do
            Domain.cpu_relax ()
          done;
          List.init 2 (fun _ ->
              match Planner.plan planner bad with
              | _ -> false
              | exception Invalid_argument _ -> true)
        in
        let results =
          List.concat_map Domain.join (List.init 4 (fun _ -> Domain.spawn request))
        in
        check_int "every request raised" 8
          (List.length (List.filter Fun.id results));
        (* A flight left behind would hang this request. *)
        check_bool "the failed key still raises" true
          (match Planner.plan planner bad with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

(* {2 The cached fallback tier}

   A [serve] request of a theorem-rejected nest gets the canonical
   nest's fallback plan, relabeled: computed once per cache entry inside
   the worker, identical on hit and miss. *)

module M = Cf_mincomm.Mincomm
module Pipeline = Cf_pipeline.Pipeline

let same_candidate (a : M.candidate) (b : M.candidate) =
  String.equal a.M.origin b.M.origin && a.M.space = b.M.space

(* Bit for bit, down to the ranking and the per-block volumes. *)
let same_fallback (a : M.t) (b : M.t) =
  a.M.nest == b.M.nest && a.M.nprocs = b.M.nprocs
  && a.M.comm_free = b.M.comm_free
  && same_candidate a.M.choice b.M.choice
  && a.M.estimate = b.M.estimate
  && List.equal
       (fun (c, e) (c', e') -> same_candidate c c' && e = e')
       a.M.ranked b.M.ranked
  && Cf_core.Iter_partition.nest a.M.partition == a.M.nest
  && Cf_core.Iter_partition.nest b.M.partition == b.M.nest
  && Cf_core.Iter_partition.blocks a.M.partition
     = Cf_core.Iter_partition.blocks b.M.partition

let cold_serve ~strategy nest =
  match Pipeline.plan_serve ~strategy ~nprocs:4 nest with
  | p -> Some (Pipeline.fallback_of p)
  | exception Invalid_argument _ -> None

(* One nest under one strategy and its renamings, each asked twice
   (miss, then hits): every answer is [Mincomm.relabel] of the canonical
   nest's cold fallback, and predicts what a cold plan of the renamed
   nest predicts.  Returns how many fallbacks the service planned. *)
let check_fallback_tier svc ~name ~strategy nest renamings =
  let c = Cf_cache.Canon.canonicalize nest in
  let canonical = cold_serve ~strategy c.Cf_cache.Canon.nest in
  let planned = ref 0 in
  List.iteri
    (fun k r ->
      let what = Printf.sprintf "%s/%s renaming %d" name
          (Cf_core.Strategy.to_string strategy) k in
      let ask () = Service.plan_one ~strategy ~serve:4 svc r in
      let first = ask () in
      let again = ask () in
      match (canonical, first, again) with
      | None, Service.Failed _, Service.Failed _ -> ()
      | Some None, Service.Done a, Service.Done b ->
        if a.Service.fallback <> None || b.Service.fallback <> None then
          Alcotest.failf "%s: an exact plan carries a fallback" what
      | Some (Some mc), Service.Done a, Service.Done b -> (
        if a.Service.fallback_planned then incr planned;
        check_bool (what ^ ": second ask hits") true b.Service.cache_hit;
        check_bool (what ^ ": second ask plans nothing") false
          b.Service.fallback_planned;
        match (a.Service.fallback, b.Service.fallback, cold_serve ~strategy r) with
        | Some fa, Some fb, Some (Some cold) ->
          let expected = M.relabel mc r in
          check_bool (what ^ ": relabeled canonical fallback") true
            (same_fallback fa expected);
          check_bool (what ^ ": hit equals miss") true (same_fallback fa fb);
          check_int (what ^ ": volume") cold.M.estimate.M.messages
            fa.M.estimate.M.messages;
          check_int (what ^ ": dimension")
            (Cf_linalg.Subspace.dim cold.M.choice.M.space)
            (Cf_linalg.Subspace.dim fa.M.choice.M.space);
          check_bool (what ^ ": servable") (M.servable cold) (M.servable fa)
        | _ -> Alcotest.failf "%s: fallback missing" what)
      | _, o, _ ->
        Alcotest.failf "%s: unexpected outcome %a" what Service.pp_outcome o)
    renamings;
  !planned

(* A window for the two timing tests below that does not depend on how
   fast the planner is: the smallest matmul whose fallback fill (the
   exact plan already cached) takes at least 20 times as long as a plain
   cached hit, and at least 20 ms so that a sleep of a tenth of it and a
   thread wake-up stay well inside it on a loaded host; with that
   fill's time, the fastest of three. *)
let slow_fill =
  lazy
    (let fastest f =
       List.fold_left min infinity
         (List.init 3 (fun _ ->
              let run = f () in
              let t0 = Unix.gettimeofday () in
              run ();
              Unix.gettimeofday () -. t0))
     in
     let cached nest =
       let planner = Planner.create () in
       ignore (Planner.plan planner nest);
       planner
     in
     let rec pick = function
       | [] -> Alcotest.fail "no matmul fill takes 20 ms and 20x a cached hit"
       | m :: rest ->
         let nest = Cf_exec.Matmul.nest ~m in
         let hit_s =
           fastest (fun () ->
               let planner = cached nest in
               fun () -> ignore (Planner.plan planner nest))
         in
         let fill_s =
           fastest (fun () ->
               let planner = cached nest in
               fun () -> ignore (Planner.plan ~serve:4 planner nest))
         in
         if fill_s >= 20. *. hit_s && fill_s >= 0.02 then (nest, fill_s)
         else pick rest
     in
     pick [ 8; 12; 16; 20; 24; 32; 40; 48 ])

let root =
  let exe_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat exe_dir "..") "..") ".."

let fallback_cases =
  [
    Alcotest.test_case "hot set and 200 Gen nests: relabeled canonical fallback"
      `Quick (fun () ->
        let svc = Service.create ~domains:2 () in
        let rng = Random.State.make [| 21 |] in
        let renamings nest =
          List.init 3 (fun _ -> Cf_perfbench.Inputs.rename rng nest)
        in
        let rejected = ref 0 and planned = ref 0 in
        let run ~name ~strategy nest =
          let n =
            check_fallback_tier svc ~name ~strategy nest (renamings nest)
          in
          planned := !planned + n;
          match cold_serve ~strategy nest with
          | Some (Some _) -> incr rejected
          | _ -> ()
        in
        Array.iteri
          (fun h nest ->
            List.iter
              (fun strategy -> run ~name:(Printf.sprintf "hot %d" h) ~strategy nest)
              Cf_core.Strategy.all)
          (Cf_perfbench.Inputs.hot_set ~root);
        for i = 0 to 199 do
          let nest =
            Cf_check.Gen.generate ~index:i ~seed:42
              (Cf_check.Gen.default ~depth:(1 + (i mod 3)))
          in
          run ~name:(Printf.sprintf "gen %d" i)
            ~strategy:(List.nth Cf_core.Strategy.all (i mod 4))
            nest
        done;
        check_bool (Printf.sprintf "%d rejected keys exercised" !rejected)
          true (!rejected >= 50);
        check_int "one fallback planned per rejected key" !rejected !planned;
        Service.shutdown svc);
    Alcotest.test_case "the queue covers fallback planning" `Quick (fun () ->
        (* Theorem 1 rejects matmul; its fallback fill outlasts the
           next job's whole timeout while the exact plan, cached first,
           costs nothing. *)
        let nest, fill_s = Lazy.force slow_fill in
        let svc = Service.create ~domains:1 () in
        (match Service.plan_one svc nest with
        | Service.Done c ->
          check_int "rejected" 0 (Pipeline.parallelism c.Service.plan)
        | o -> Alcotest.failf "warm-up: %a" Service.pp_outcome o);
        let slow = Service.submit ~serve:4 svc nest in
        check_bool "worker busy with the fallback" true
          (wait_until (fun () -> (Service.stats svc).Service.in_flight = 1));
        let next = Service.submit ~timeout:(fill_s /. 10.) svc l1 in
        (match Service.await slow with
        | Service.Done c ->
          check_bool "exact plan was a hit" true c.Service.cache_hit;
          check_bool "fallback planned in the worker" true
            c.Service.fallback_planned
        | o -> Alcotest.failf "slow job: %a" Service.pp_outcome o);
        (match Service.await next with
        | Service.Timed_out -> ()
        | o ->
          Alcotest.failf "expected a timeout behind %.1fms of fallback, got %a"
            (1e3 *. fill_s) Service.pp_outcome o);
        Service.shutdown svc);
    Alcotest.test_case "a cached answer does not wait for a fallback fill"
      `Quick (fun () ->
        (* One domain fills matmul's fallback into its cached entry; a
           plain [plan] of the same key meanwhile is an immediate hit. *)
        let nest, fill_s = Lazy.force slow_fill in
        let planner = Planner.create () in
        ignore (Planner.plan planner nest);
        let started = Atomic.make false and filled = Atomic.make false in
        let filler =
          Domain.spawn (fun () ->
              Atomic.set started true;
              let a = Planner.plan ~serve:4 planner nest in
              Atomic.set filled true;
              a.Planner.fallback_planned)
        in
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        Unix.sleepf (fill_s /. 10.);
        let a = Planner.plan planner nest in
        let waited = Atomic.get filled in
        check_bool "the filler planned the fallback" true (Domain.join filler);
        check_bool "plain plan hit" true a.Planner.hit;
        check_bool "plain plan returned before the fill landed" false waited);
  ]

let suites =
  [
    ("service-determinism", deterministic_cases);
    ("service-fallback", fallback_cases);
    ("service-single-flight", single_flight_cases);
    ("service-pressure", pressure_cases);
    ("service-lifecycle", lifecycle_cases);
    ("service-resilience", resilience_cases);
    ("service-half-open", half_open_cases);
    ("service-jitter", jitter_cases);
    ("service-histogram", histogram_cases);
  ]
