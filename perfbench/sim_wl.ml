(* Workload [simulate]: plans made in set-up, each operation simulates
   one plan on a 16-PE machine with distribution charged and validation
   on, closed loop on one thread and one domain.  The executor, kernels,
   distribution, golden-run validation and checkpoint journaling do the
   work; the planner does none. *)

open Common
module Parexec = Cf_exec.Parexec
module Machine = Cf_machine.Machine
module Strategy = Cf_core.Strategy
module W = Cf_workloads.Workloads

type fault_run = {
  plan : Pipeline.t;
  kill_after : int;  (** iterations PE 0 completes before it dies *)
  reference_ok : bool;  (** the same run without the fault validated *)
}

type kind = Plain of Pipeline.planned | Fault of fault_run

type job = { name : string; nest : Cf_loop.Nest.t; kind : kind }

let placement = Parexec.cyclic ~nprocs:procs

let fault_machine ~kill_after =
  let spec = { Cf_fault.Fault.none with kills = [ (0, kill_after) ] } in
  Machine.create
    ~faults:(Cf_fault.Fault.make ~procs spec)
    (Cf_machine.Topology.linear procs)
    Cf_machine.Cost.transputer

(* As [cfalloc simulate --kill-pe 0 --kill-after K --checkpoint-every 1]
   does, on one domain. *)
let execute_fault ?(validate = true) ~machine (f : fault_run) coset =
  Parexec.execute_indexed ?exact:f.plan.Pipeline.exact ~validate ~domains:1
    ~charge_distribution:true ~checkpoint_every:1 ~machine ~placement
    ~strategy:f.plan.Pipeline.strategy coset

let setup ~seed =
  let plain name (k : W.kernel) size =
    let nest = k.build ~size in
    let planned =
      Pipeline.plan_serve ~strategy:Strategy.Duplicate ~nprocs:procs nest
    in
    { name; nest; kind = Plain planned }
  in
  let nest = W.matmul.build ~size:32 in
  let plan = Pipeline.plan ~strategy:Strategy.Duplicate nest in
  (* PE 0 holds 64 blocks of 32 iterations: kill it part-way through. *)
  let kill_after =
    1 + Random.State.int (Random.State.make [| seed; 0xfa17 |]) 2047
  in
  let reference =
    Parexec.execute_indexed ?exact:plan.Pipeline.exact ~domains:1
      ~charge_distribution:true
      ~machine:
        (Machine.create (Cf_machine.Topology.linear procs)
           Cf_machine.Cost.transputer)
      ~placement ~strategy:plan.Pipeline.strategy
      (Cf_core.Coset.make nest plan.Pipeline.space)
  in
  [
    plain "matmul48" W.matmul 48;
    plain "stencil_3d24" W.stencil_3d 24;
    plain "conv2d64" W.convolution_2d 64;
    plain "rank1_64" W.rank1_update 64;
    plain "sor128" W.sor 128;
    {
      name = "matmul32-kill-pe0";
      nest;
      kind =
        Fault { plan; kill_after; reference_ok = Parexec.ok reference };
    };
  ]

(* The measured operation.  [Some (makespan, messages)] for fault-free
   runs, the figures that must repeat exactly. *)
let simulate_op job =
  match job.kind with
  | Plain planned ->
    let sim = Pipeline.simulate_serve ~procs ~with_distribution:true planned in
    let ok =
      Parexec.ok sim.Pipeline.report
      &&
      (* A fallback's predicted volume is exact for the machine size it
         was planned for. *)
      match Pipeline.fallback_of planned with
      | None -> true
      | Some mc ->
        mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages
        = Machine.serviced_messages sim.Pipeline.report.Parexec.machine
    in
    (ok, Some (sim.Pipeline.makespan, sim_messages sim))
  | Fault f ->
    let machine = fault_machine ~kill_after:f.kill_after in
    let coset = Cf_core.Coset.make job.nest f.plan.Pipeline.space in
    let report = execute_fault ~machine f coset in
    let crashed =
      match report.Parexec.recovery with
      | Some r -> r.Parexec.crashed_pes = [ 0 ]
      | None -> false
    in
    (* Both runs validate against the same sequential golden run, so an
       ok fault run holds exactly the fault-free result. *)
    (Parexec.ok report && crashed && f.reference_ok, None)

let quality jobs sims =
  List.fold_left2
    (fun q job sim ->
      let planned, dims =
        match job.kind with
        | Plain p -> (p, Pipeline.parallelism (Pipeline.pipeline_of p))
        | Fault f -> (Pipeline.Exact f.plan, Pipeline.parallelism f.plan)
      in
      let q =
        {
          q with
          parallel_dims = q.parallel_dims + dims;
          planned = q.planned + 1;
          total = q.total + 1;
          predicted_msgs =
            (q.predicted_msgs
            +
            match Pipeline.fallback_of planned with
            | Some mc -> mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages
            | None -> 0);
        }
      in
      match sim with
      | Some (makespan, messages) ->
        { q with
          makespan = q.makespan +. makespan;
          messages = q.messages + messages }
      | None -> q)
    empty_quality jobs sims

let run_untraced ~seed ~seconds =
  let jobs, setup_s = setup_median ~repeats:3 (fun () -> setup ~seed) in
  let first = ref None and drift = ref 0 in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let iterations = ref 0 and passes = ref 0 in
  let t0 = now () in
  while !passes = 0 || now () -. t0 < seconds do
    let sims =
      List.map
        (fun job ->
          let t = now () in
          let ok, sim = simulate_op job in
          (* Latency is per simulated plan: the fault run takes another
             path and would put a sixth cluster at the median. *)
          if sim <> None then latencies := (now () -. t) :: !latencies;
          incr attempted;
          iterations := !iterations + Cf_loop.Nest.cardinal job.nest;
          if not ok then begin
            incr failed;
            Printf.printf "error: %s failed its output check\n" job.name
          end;
          sim)
        jobs
    in
    (match !first with
    | None -> first := Some sims
    | Some s -> if s <> sims then incr drift);
    incr passes
  done;
  let elapsed = now () -. t0 in
  Printf.printf
    "simulate: %d passes of %d runs in %.3f s; %d failed; %d passes drifted\n"
    !passes (List.length jobs) elapsed !failed !drift;
  let metrics =
    e2e_metrics
      {
        setup_s;
        throughput_per_s = float_of_int !iterations /. elapsed;
        latencies_s = !latencies;
        tail_max_p = 75.;
        peak_rss_mb = Stats.peak_rss_mb ();
        quality = quality jobs (Option.get !first);
      }
  in
  finish ~attempted:!attempted ~failed:!failed ~correct:(!drift = 0) metrics

(* {2 Traced decomposition} *)

type counts = {
  mutable iters : int;
  mutable blocks : int;
  mutable host_msgs : int;
  mutable host_words : int;
  mutable serviced : int;
  mutable replayed : int;
  mutable redistributed : int;
  mutable checkpoint_words : int;
  mutable golden_iters : int;
}

let fresh_machine ?comm_mode () =
  Machine.create ?comm_mode (Cf_machine.Topology.linear procs)
    Cf_machine.Cost.transputer

(* The data an exact plan's charged distribution sends: one block-local
   copy ([A#block]) of every element a block touches, per array, on the
   block's PE. *)
let block_copies (t : Pipeline.t) =
  let groups = Hashtbl.create 256 in
  let idx = Cf_loop.Nest.indices t.Pipeline.nest in
  let pos v =
    let rec go k = if idx.(k) = v then k else go (k + 1) in
    go 0
  in
  let refs =
    List.concat_map
      (fun (s : Cf_loop.Stmt.t) ->
        s.Cf_loop.Stmt.lhs :: Cf_loop.Expr.reads s.Cf_loop.Stmt.rhs)
      t.Pipeline.nest.Cf_loop.Nest.body
  in
  Array.iter
    (fun (b : Cf_core.Iter_partition.block) ->
      let pe = placement b.Cf_core.Iter_partition.id in
      List.iter
        (fun iter ->
          List.iter
            (fun (r : Cf_loop.Aref.t) ->
              let el = Cf_loop.Aref.eval (fun v -> iter.(pos v)) r in
              let key = (pe, Printf.sprintf "%s#%d" r.Cf_loop.Aref.array b.id) in
              let tbl =
                match Hashtbl.find_opt groups key with
                | Some tbl -> tbl
                | None ->
                  let tbl = Hashtbl.create 16 in
                  Hashtbl.add groups key tbl;
                  tbl
              in
              Hashtbl.replace tbl (Machine.pack_coords el)
                (el, Cf_exec.Seqexec.default_init r.Cf_loop.Aref.array el))
            refs)
        b.Cf_core.Iter_partition.iterations)
    (Cf_core.Iter_partition.blocks t.Pipeline.partition);
  groups

(* A fallback's distribution: one home copy per accessed element, one
   message per (PE, array). *)
let home_copies (t : Pipeline.t) =
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun (array, homes) ->
      Hashtbl.iter
        (fun packed pe ->
          let tbl =
            match Hashtbl.find_opt groups (pe, array) with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 64 in
              Hashtbl.add groups (pe, array) tbl;
              tbl
          in
          let el = Machine.unpack_coords packed in
          Hashtbl.replace tbl packed (el, Cf_exec.Seqexec.default_init array el))
        homes)
    (Parexec.fallback_homes ~placement t.Pipeline.partition);
  groups

(* Pre-place [groups] with the host primitives on a scratch machine. *)
let host_place tr counts groups =
  let m = fresh_machine () in
  Spans.span tr "machine" (fun () ->
      Hashtbl.iter
        (fun (pe, name) tbl ->
          Machine.host_send m ~pe name
            (Hashtbl.fold (fun _ v acc -> v :: acc) tbl []))
        groups;
      Machine.compact m);
  counts.host_msgs <- counts.host_msgs + Machine.message_count m;
  counts.host_words <- counts.host_words + Machine.message_volume m

let golden tr counts nest =
  ignore (Spans.span tr "seqexec" (fun () -> Cf_exec.Seqexec.run nest));
  counts.golden_iters <- counts.golden_iters + Cf_loop.Nest.cardinal nest

(* One simulation split into its layers: distribution through the host
   primitives, the engine with validation off, the sequential golden
   run.  Returns whether the engine stayed communication-free. *)
let traced_op tr counts job =
  match job.kind with
  | Plain (Pipeline.Exact t) ->
    host_place tr counts (block_copies t);
    let report =
      Spans.span tr "parexec" (fun () ->
          Parexec.execute ?exact:t.Pipeline.exact ~validate:false
            ~machine:(fresh_machine ()) ~placement ~strategy:t.Pipeline.strategy
            t.Pipeline.partition)
    in
    counts.iters <-
      counts.iters + Array.fold_left ( + ) 0 report.Parexec.per_pe_iterations;
    counts.blocks <- counts.blocks + Pipeline.block_count t;
    golden tr counts job.nest;
    report.Parexec.remote_access = None
  | Plain (Pipeline.Fallback (t, _)) ->
    host_place tr counts (home_copies t);
    let machine = fresh_machine ~comm_mode:`Service () in
    let report =
      Spans.span tr "parexec_fallback" (fun () ->
          Parexec.execute_fallback ~validate:false ~machine ~placement
            t.Pipeline.partition)
    in
    counts.serviced <- counts.serviced + Machine.serviced_messages machine;
    golden tr counts job.nest;
    report.Parexec.remote_access = None
  | Fault f ->
    let coset =
      Spans.span tr "coset" (fun () ->
          Cf_core.Coset.make job.nest f.plan.Pipeline.space)
    in
    let machine = fault_machine ~kill_after:f.kill_after in
    let report =
      Spans.span tr "parexec_recovery" (fun () ->
          execute_fault ~validate:false ~machine f coset)
    in
    (match report.Parexec.recovery with
    | Some r ->
      counts.replayed <- counts.replayed + r.Parexec.replayed_blocks;
      counts.redistributed <- counts.redistributed + r.Parexec.redistributed_words;
      counts.checkpoint_words <-
        counts.checkpoint_words + r.Parexec.checkpoint_words
    | None -> ());
    golden tr counts job.nest;
    report.Parexec.remote_access = None

let run_traced ~seed ~seconds ~trace_path =
  let jobs = setup ~seed in
  let tr = Spans.create ~enabled:true () in
  let counts =
    { iters = 0; blocks = 0; host_msgs = 0; host_words = 0; serviced = 0;
      replayed = 0; redistributed = 0; checkpoint_words = 0; golden_iters = 0 }
  in
  let attempted = ref 0 and failed = ref 0 and sim_msgs = ref 0 in
  let untraced () =
    List.iter
      (fun job ->
        incr attempted;
        let ok, sim = simulate_op job in
        if not ok then incr failed;
        Option.iter (fun (_, m) -> sim_msgs := !sim_msgs + m) sim)
      jobs
  in
  let traced pass () =
    List.iteri
      (fun k job ->
        incr attempted;
        let ok =
          Spans.op tr ((pass * List.length jobs) + k) (fun () ->
              traced_op tr counts job)
        in
        if not ok then begin
          incr failed;
          Printf.printf "error: traced %s touched remote data\n" job.name
        end)
      jobs
  in
  let passes, untraced_s, traced_s = alternate ~seconds ~untraced ~traced in
  let spans = Spans.spans tr in
  let trace_ok = write_trace trace_path spans in
  (* The pre-placement must send what the measured runs' charged
     distribution sent. *)
  let placed = counts.host_msgs + counts.serviced = !sim_msgs in
  if not placed then
    Printf.printf "error: pre-placement sent %d messages, the simulations %d\n"
      (counts.host_msgs + counts.serviced) !sim_msgs;
  let layers = Spans.aggregate spans in
  let layer name = Spans.find layers name in
  let per x = x /. float_of_int passes in
  let count c = per (float_of_int c) in
  Printf.printf
    "simulate traced: %d passes of %d runs\nper-layer table (per pass):\n"
    passes (List.length jobs);
  let metrics =
    per_layer_metrics
      (layer_metrics ~passes layers
      @ [
          ("parexec.iters", count counts.iters);
          ("parexec.blocks", count counts.blocks);
          ("parexec.fallback_s", per (layer "parexec_fallback").self_s);
          ("parexec.recovery_s", per (layer "parexec_recovery").self_s);
          ("parexec.replayed_blocks", count counts.replayed);
          ("parexec.redistributed_words", count counts.redistributed);
          ( "compile.iters_per_s",
            float_of_int counts.golden_iters /. (layer "seqexec").self_s );
          ("machine.host_s", per (layer "machine").self_s);
          ("machine.host_msgs", count counts.host_msgs);
          ("machine.host_words", count counts.host_words);
          ("machine.serviced_msgs", count counts.serviced);
          ("machine.checkpoint_words", count counts.checkpoint_words);
          ("unaccounted_s", per (untraced_s -. layer_self layers));
          ("trace_overhead_frac", (traced_s /. untraced_s) -. 1.);
        ])
  in
  finish ~attempted:!attempted ~failed:!failed ~correct:(trace_ok && placed) metrics
