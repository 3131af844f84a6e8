(* Workload [plan]: source text to verified plan, one nest per operation,
   closed loop on one thread, no plan cache.  The planner layers do all
   the work; the executor and the server do none. *)

open Common
module Normalize = Cf_normalize.Normalize
module Mincomm = Cf_mincomm.Mincomm
module Strategy = Cf_core.Strategy

type outcome = {
  ok : bool;  (** every output check passed *)
  planned : Pipeline.planned option;
      (** [None]: normalization left the nest unplannable *)
}

(* Tier, Ψ and block count: what must not change between passes, and
   what the traced composition must reproduce. *)
type shape = { tier : string; space : Cf_linalg.Subspace.t option; blocks : int }

let shape_of_planned = function
  | None -> { tier = "none"; space = None; blocks = 0 }
  | Some planned ->
    let t = Pipeline.pipeline_of planned in
    {
      tier = (match planned with Pipeline.Exact _ -> "exact" | _ -> "fallback");
      space = Some t.Pipeline.space;
      blocks = Pipeline.block_count t;
    }

let same_shape a b =
  a.tier = b.tier && a.blocks = b.blocks
  &&
  match (a.space, b.space) with
  | Some x, Some y -> Cf_linalg.Subspace.equal x y
  | None, None -> true
  | _ -> false

(* The measured path: parse, plan through the normalization front door,
   check the witness, then check the plan. *)
let plan_op ~strategy src =
  match
    let nest = Cf_loop.Parse.nest src in
    Pipeline.plan_normalized ~strategy nest
  with
  | Ok (r, planned) ->
    let holds =
      match planned with
      | Pipeline.Exact t -> Pipeline.verified t
      | Pipeline.Fallback (_, mc) -> Mincomm.servable mc
    in
    { ok = Normalize.check r = Ok () && holds; planned = Some planned }
  | Error (r, _) -> { ok = Normalize.check r = Ok (); planned = None }
  | exception e ->
    Printf.printf "error: %s\n" (Printexc.to_string e);
    { ok = false; planned = None }

type counts = {
  mutable transforms : int;
  mutable blocks : int;
  mutable verify_failures : int;
  mutable witness_failures : int;
}

(* The traced path: [Pipeline.plan_normalized] recomposed from the
   layers' public functions, one span per call. *)
let traced_op tr counts ~strategy src =
  let span name f = Spans.span tr name f in
  let nest = span "parse" (fun () -> Cf_loop.Parse.nest src) in
  let r = span "normalize" (fun () -> Normalize.normalize nest) in
  counts.transforms <- counts.transforms + List.length r.Normalize.steps;
  let n = r.Normalize.normalized in
  let compose () =
    let exact, space, partition = traced_plan tr ~strategy n in
    counts.blocks <- counts.blocks + Cf_core.Iter_partition.block_count partition;
    if Strategy.parallelism_degree space > 0 then `Exact (exact, space, partition)
    else begin
      let mc = span "mincomm" (fun () -> Mincomm.plan ~nprocs:4 n) in
      let fspace = mc.Mincomm.choice.Mincomm.space in
      ignore
        (span "transformer" (fun () ->
             Cf_transform.Transformer.transform n fspace));
      `Fallback mc
    end
  in
  let planned =
    if Cf_loop.Nest.cardinal n = 0 || not (Cf_loop.Nest.all_uniformly_generated n)
    then None
    else match compose () with p -> Some p | exception Invalid_argument _ -> None
  in
  let witness = span "witness" (fun () -> Normalize.check r) = Ok () in
  if not witness then counts.witness_failures <- counts.witness_failures + 1;
  let holds, shape =
    match planned with
    | None -> (true, { tier = "none"; space = None; blocks = 0 })
    | Some (`Exact (exact, space, partition)) ->
      let v =
        span "verify" (fun () ->
            Cf_core.Verify.communication_free ?exact strategy partition)
      in
      if not v then counts.verify_failures <- counts.verify_failures + 1;
      ( v,
        { tier = "exact"; space = Some space;
          blocks = Cf_core.Iter_partition.block_count partition } )
    | Some (`Fallback mc) ->
      ( Mincomm.servable mc,
        { tier = "fallback"; space = Some mc.Mincomm.choice.Mincomm.space;
          blocks = Cf_core.Iter_partition.block_count mc.Mincomm.partition } )
  in
  (witness && holds, shape)

let pairs corpus =
  Array.of_list
    (List.concat_map
       (fun (e : Inputs.entry) -> List.map (fun s -> (e, s)) Strategy.all)
       corpus)

let inputs_self_check ~root ~seed corpus =
  let text c = Inputs.digest (List.map (fun (e : Inputs.entry) -> e.src) c) in
  let d = text corpus in
  Printf.printf "inputs: %d nests, corpus md5 %s\n" (List.length corpus) d;
  let same = d = text (Inputs.plan_corpus ~root ~seed) in
  if not same then print_endline "error: regenerated inputs differ";
  same

let run_untraced ~root ~seed ~seconds =
  let corpus, setup_s =
    setup_median ~repeats:5 (fun () -> Inputs.plan_corpus ~root ~seed)
  in
  let pairs = pairs corpus in
  let first = Array.make (Array.length pairs) None in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let drift = ref 0 and passes = ref 0 in
  let t0 = now () in
  while !passes = 0 || now () -. t0 < seconds do
    Array.iteri
      (fun p ((e : Inputs.entry), strategy) ->
        let t = now () in
        let o = plan_op ~strategy e.src in
        latencies := (now () -. t) :: !latencies;
        incr attempted;
        if not o.ok then incr failed;
        match first.(p) with
        | None -> first.(p) <- Some o
        | Some o1 ->
          let shape = shape_of_planned o.planned in
          if not (same_shape shape (shape_of_planned o1.planned)) then
            incr drift)
      pairs;
    incr passes
  done;
  let elapsed = now () -. t0 in
  let quality =
    Array.fold_left
      (fun q o -> add_plan q (Option.bind o (fun o -> o.planned)))
      empty_quality first
  in
  let inputs_ok = inputs_self_check ~root ~seed corpus in
  Printf.printf
    "plan: %d passes of %d nest-strategy pairs in %.3f s; %d failed; %d \
     drifted between passes; %d plan-set simulations failed\n"
    !passes (Array.length pairs) elapsed !failed !drift quality.sim_failures;
  let metrics =
    e2e_metrics
      {
        setup_s;
        throughput_per_s = float_of_int !attempted /. elapsed;
        latencies_s = !latencies;
        tail_max_p = 99.;
        peak_rss_mb = Stats.peak_rss_mb ();
        quality;
      }
  in
  finish ~attempted:!attempted ~failed:!failed
    ~correct:(inputs_ok && !drift = 0 && quality.sim_failures = 0)
    metrics

let run_traced ~root ~seed ~seconds ~trace_path =
  let corpus = Inputs.plan_corpus ~root ~seed in
  let pairs = pairs corpus in
  let tr = Spans.create ~enabled:true () in
  let counts =
    { transforms = 0; blocks = 0; verify_failures = 0; witness_failures = 0 }
  in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let untraced () =
    Array.map
      (fun ((e : Inputs.entry), strategy) ->
        let o = plan_op ~strategy e.src in
        incr attempted;
        if not o.ok then incr failed;
        shape_of_planned o.planned)
      pairs
  in
  let traced pass shapes =
    Array.iteri
      (fun p ((e : Inputs.entry), strategy) ->
        let ok, shape =
          Spans.op tr ((pass * Array.length pairs) + p) (fun () ->
              traced_op tr counts ~strategy e.src)
        in
        incr attempted;
        if not ok then incr failed;
        if not (same_shape shape shapes.(p)) then begin
          incr mismatched;
          Printf.printf "error: traced composition differs on %s/%s\n" e.label
            (Strategy.to_string strategy)
        end)
      pairs
  in
  let passes, untraced_s, traced_s = alternate ~seconds ~untraced ~traced in
  let spans = Spans.spans tr in
  let trace_ok = write_trace trace_path spans in
  let layers = Spans.aggregate spans in
  let per x = x /. float_of_int passes in
  Printf.printf
    "plan traced: %d passes of %d pairs; composition matched \
     plan_normalized on %d of %d\nper-layer table (per pass):\n"
    passes (Array.length pairs)
    ((passes * Array.length pairs) - !mismatched)
    (passes * Array.length pairs);
  let metrics =
    per_layer_metrics
      (layer_metrics ~passes layers
      @ [
          ("normalize.transforms", per (float_of_int counts.transforms));
          ("iter_partition.blocks", per (float_of_int counts.blocks));
          ("verify.failures", per (float_of_int counts.verify_failures));
          ("witness.failures", per (float_of_int counts.witness_failures));
          ("unaccounted_s", per (untraced_s -. layer_self layers));
          ("trace_overhead_frac", (traced_s /. untraced_s) -. 1.);
        ])
  in
  finish ~attempted:!attempted ~failed:(!failed + !mismatched) ~correct:trace_ok
    metrics
