(* Pieces shared by the three workloads: clocks, set-up timing, the
   metric catalogue, the deterministic plan-set figures and the result
   line. *)

module Pipeline = Cf_pipeline.Pipeline

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Set-up runs several times and reports its median, so a slow first
   set-up (page faults, cold file cache) does not decide the figure.
   The heap is then compacted, so every run starts its measured phase
   without the set-ups' garbage. *)
let setup_median ~repeats ?(discard = ignore) f =
  let rec go k times =
    let r, dt = time f in
    if k = 1 then (r, Stats.median (dt :: times))
    else begin
      discard r;
      go (k - 1) (dt :: times)
    end
  in
  let result = go repeats [] in
  Gc.compact ();
  result

let procs = 16

(* {2 Deterministic plan-set figures}

   Every workload has a set of plans: the [plan] corpus under all four
   strategies, the [simulate] plans, the [serve] hot set under all four
   strategies.  These figures depend only on the seed, never on timing:
   forall dimensions, the share that reaches an exact or fallback plan,
   predicted fallback messages, and the cost-model makespan and message
   count of running each plan on a 16-PE machine with distribution
   charged, as [cfalloc simulate] does. *)

type quality = {
  parallel_dims : int;
  planned : int;
  total : int;
  predicted_msgs : int;
  makespan : float;
  messages : int;
  sim_failures : int;
}

let empty_quality =
  { parallel_dims = 0; planned = 0; total = 0; predicted_msgs = 0;
    makespan = 0.; messages = 0; sim_failures = 0 }

let sim_messages (sim : Pipeline.simulation) =
  let m = sim.Pipeline.report.Cf_exec.Parexec.machine in
  Cf_machine.Machine.message_count m + Cf_machine.Machine.serviced_messages m

let add_plan q (planned : Pipeline.planned option) =
  match planned with
  | None -> { q with total = q.total + 1 }
  | Some planned ->
    let sim =
      Pipeline.simulate_serve ~procs ~with_distribution:true planned
    in
    let predicted =
      match Pipeline.fallback_of planned with
      | Some mc -> mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages
      | None -> 0
    in
    {
      parallel_dims =
        q.parallel_dims + Pipeline.parallelism (Pipeline.pipeline_of planned);
      planned = q.planned + 1;
      total = q.total + 1;
      predicted_msgs = q.predicted_msgs + predicted;
      makespan = q.makespan +. sim.Pipeline.makespan;
      messages = q.messages + sim_messages sim;
      sim_failures =
        (q.sim_failures
        + if Cf_exec.Parexec.ok sim.Pipeline.report then 0 else 1);
    }

(* [Pipeline.plan] recomposed from the layers' public functions, one
   span per call: the traced runs use it in place of the library's own
   phase sequence. *)
let traced_plan tr ~strategy nest =
  let span name f = Spans.span tr name f in
  let exact =
    if Cf_core.Strategy.uses_exact_analysis strategy then
      Some (span "exact" (fun () -> Cf_dep.Exact.analyze nest))
    else None
  in
  let space =
    span "strategy" (fun () ->
        Cf_core.Strategy.partitioning_space ?exact strategy nest)
  in
  let partition =
    span "iter_partition" (fun () -> Cf_core.Iter_partition.make nest space)
  in
  ignore
    (span "transformer" (fun () -> Cf_transform.Transformer.transform nest space));
  (exact, space, partition)

(* The traced runs alternate an untraced and a traced pass over the same
   operations until [seconds] have passed, at least once.  [traced]
   receives the pass number and the untraced pass's result.  Returns the
   pass count and the seconds spent in each kind of pass. *)
let alternate ~seconds ~untraced ~traced =
  let untraced_s = ref 0. and traced_s = ref 0. and passes = ref 0 in
  let t0 = now () in
  while !passes = 0 || now () -. t0 < seconds do
    let u, dt = time untraced in
    untraced_s := !untraced_s +. dt;
    let (), dt = time (fun () -> traced !passes u) in
    traced_s := !traced_s +. dt;
    incr passes
  done;
  (!passes, !untraced_s, !traced_s)

(* Write the spans as a Chrome trace and report whether it validated. *)
let write_trace path spans =
  match Spans.write_chrome path spans with
  | Ok n ->
    Printf.printf "trace: %s (%d events, valid)\n" path n;
    true
  | Error msg ->
    Printf.printf "error: invalid trace %s: %s\n" path msg;
    false

(* Total self time of the layers, leaving out the operations' root
   spans. *)
let layer_self layers =
  List.fold_left
    (fun acc (name, (l : Spans.layer)) ->
      if name = "op" then acc else acc +. l.self_s)
    0. layers

(* {2 Metrics} *)

type e2e = {
  setup_s : float;
  throughput_per_s : float;
  latencies_s : float list;  (* one per completed operation *)
  tail_max_p : float;
  peak_rss_mb : float;
  quality : quality;
}

(* [latency_p99_ms] is the highest percentile up to [tail_max_p] with at
   least ten samples beyond it: p99 on plan and serve, which complete
   thousands of operations; p75 on simulate, which completes about 60
   simulations, capped there so that a faster run does not switch to
   p90. *)
let e2e_metrics e =
  let sorted = Stats.sorted e.latencies_s in
  let n = Array.length sorted in
  let p, tail = Stats.tail ~max_p:e.tail_max_p sorted in
  Printf.printf
    "latency: %d samples, p50 %.4f ms; latency_p99_ms reports p%g = %.4f ms \
     (%d samples beyond)\n"
    n
    (1e3 *. Stats.percentile sorted 50.)
    p (1e3 *. tail) (Stats.beyond n p);
  let q = e.quality in
  [
    ("setup_s", e.setup_s, "s");
    ("throughput_per_s", e.throughput_per_s, "1/s");
    ("latency_p50_ms", 1e3 *. Stats.percentile sorted 50., "ms");
    ("latency_p99_ms", 1e3 *. tail, "ms");
    ("peak_rss_mb", e.peak_rss_mb, "MB");
    ("sim_makespan_s", q.makespan, "sim_s");
    ("sim_messages", float_of_int q.messages, "count");
    ("parallel_dims", float_of_int q.parallel_dims, "count");
    ("planned_frac", float_of_int q.planned /. float_of_int q.total, "ratio");
    ("predicted_msgs", float_of_int q.predicted_msgs, "count");
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them; a
   layer a workload does not reach reports 0. *)
let per_layer_units =
  [
    ("parse.self_s", "s"); ("parse.alloc_mw", "Mw");
    ("normalize.self_s", "s"); ("normalize.transforms", "count");
    ("normalize.alloc_mw", "Mw");
    ("witness.self_s", "s"); ("witness.failures", "count");
    ("exact.self_s", "s"); ("exact.calls", "count"); ("exact.alloc_mw", "Mw");
    ("strategy.self_s", "s"); ("strategy.alloc_mw", "Mw");
    ("iter_partition.self_s", "s"); ("iter_partition.blocks", "count");
    ("iter_partition.alloc_mw", "Mw");
    ("transformer.self_s", "s");
    ("verify.self_s", "s"); ("verify.failures", "count");
    ("mincomm.self_s", "s"); ("mincomm.calls", "count");
    ("mincomm.alloc_mw", "Mw");
    ("parexec.self_s", "s"); ("parexec.iters", "count");
    ("parexec.blocks", "count"); ("parexec.alloc_mw", "Mw");
    ("parexec.fallback_s", "s"); ("parexec.recovery_s", "s");
    ("parexec.replayed_blocks", "count");
    ("parexec.redistributed_words", "count");
    ("compile.iters_per_s", "1/s");
    ("seqexec.self_s", "s"); ("seqexec.alloc_mw", "Mw");
    ("machine.host_s", "s"); ("machine.host_msgs", "count");
    ("machine.host_words", "count"); ("machine.serviced_msgs", "count");
    ("machine.checkpoint_words", "count");
    ("coset.self_s", "s");
    ("admission.admitted", "count"); ("admission.shed", "count");
    ("admission.saturated", "count"); ("admission.rate_limited", "count");
    ("admission.hwm", "count");
    ("service.latency_p50_ms", "ms"); ("service.latency_p99_ms", "ms");
    ("service.queue_hwm", "count");
    ("memo.hits", "count"); ("memo.misses", "count");
    ("memo.evictions", "count"); ("memo.hit_frac", "ratio");
    ("journal.appended", "count"); ("journal.syncs", "count");
    ("journal.compactions", "count"); ("journal.append_s", "s");
    ("frame.self_s", "s"); ("frame.req_bytes", "bytes");
    ("frame.reply_bytes", "bytes"); ("protocol.self_s", "s");
    ("canon.self_s", "s");
    ("client.outside_service_ms", "ms");
    ("unaccounted_s", "s"); ("trace_overhead_frac", "ratio");
  ]

(* [layer_metrics ~passes layers] turns aggregated spans into the
   [<layer>.self_s], [<layer>.calls] and [<layer>.alloc_mw] figures,
   averaged per pass. *)
let layer_metrics ~passes layers =
  let per x = x /. float_of_int passes in
  List.concat_map
    (fun (name, (l : Spans.layer)) ->
      [
        (name ^ ".self_s", per l.self_s);
        (name ^ ".calls", per (float_of_int l.calls));
        (name ^ ".alloc_mw", per (l.self_words /. 1e6));
      ])
    layers

(* Print the per-layer table, then return every catalogue metric. *)
let per_layer_metrics measured =
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name measured with
      | Some v -> Printf.printf "  %-30s %16.6f %s\n" name v unit
      | None -> ())
    per_layer_units;
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
    per_layer_units

(* {2 Result line} *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let finish ~attempted ~failed ~correct metrics =
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter
    (fun (n, _, _) -> Printf.printf "error: metric %s is not finite\n" n)
    bad;
  let correct = correct && failed = 0 && bad = [] in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then number v else "0")
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  if correct then 0 else 1
