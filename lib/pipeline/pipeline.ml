open Cf_core

let src = Logs.Src.create "comfree.pipeline" ~doc:"Communication-free planner"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  nest : Cf_loop.Nest.t;
  strategy : Strategy.t;
  exact : Cf_dep.Exact.result option;
  space : Cf_linalg.Subspace.t;
  partition : Iter_partition.t;
  parloop : Cf_transform.Parloop.t;
}

(* Planning phases report as wall-clock spans on the planner lane of
   [obs] (the trace's injected clock — this module never reads the real
   time itself). *)
let phase obs name f = Cf_obs.Trace.span obs ~cat:"plan" name f

(* The strategy's exact analysis and Ψ, both read from [facts]. *)
let analyse ~obs ~strategy facts =
  let exact =
    if Strategy.uses_exact_analysis strategy then
      Some (phase obs "exact-analysis" (fun () -> Facts.exact_result facts))
    else None
  in
  let space =
    phase obs "partitioning-space" (fun () ->
        Facts.partitioning_space facts strategy)
  in
  Log.debug (fun m ->
      m "strategy %a: psi = %a" Strategy.pp strategy Cf_linalg.Subspace.pp
        space);
  (exact, space)

(* The plan around a chosen Ψ and its partition: the [forall] nest. *)
let assemble ~obs ?basis ~strategy ~exact nest space partition =
  let parloop =
    phase obs "transform" (fun () ->
        Cf_transform.Transformer.transform ?basis nest space)
  in
  { nest; strategy; exact; space; partition; parloop }

let partition_of ~obs nest space =
  phase obs "iter-partition" (fun () -> Iter_partition.make nest space)

let plan_of_facts ?(obs = Cf_obs.Trace.null)
    ?(strategy = Strategy.Nonduplicate) ?basis facts =
  let nest = Facts.nest facts in
  let exact, space = analyse ~obs ~strategy facts in
  let partition = partition_of ~obs nest space in
  assemble ~obs ?basis ~strategy ~exact nest space partition

let plan ?obs ?strategy ?basis ?search_radius nest =
  plan_of_facts ?obs ?strategy ?basis (Facts.make ?search_radius nest)

let relabel t nest =
  {
    nest;
    strategy = t.strategy;
    exact = Option.map (fun e -> Cf_dep.Exact.relabel e nest) t.exact;
    space = t.space;
    partition = Iter_partition.relabel t.partition nest;
    parloop = Cf_transform.Parloop.relabel t.parloop ~source:nest;
  }

let parallelism t = Strategy.parallelism_degree t.space
let block_count t = Iter_partition.block_count t.partition

let verified t =
  Verify.communication_free ?exact:t.exact t.strategy t.partition

type simulation = {
  report : Cf_exec.Parexec.report;
  balance : Cf_exec.Balance.t;
  makespan : float;
}

let simulate ?backend ?(procs = 4) ?(cost = Cf_machine.Cost.transputer)
    ?(with_distribution = false) t =
  let machine =
    Cf_machine.Machine.create (Cf_machine.Topology.linear procs) cost
  in
  let report =
    Cf_exec.Parexec.execute ?backend ?exact:t.exact
      ~charge_distribution:with_distribution ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
      ~strategy:t.strategy t.partition
  in
  {
    report;
    balance = Cf_exec.Balance.of_counts report.Cf_exec.Parexec.per_pe_iterations;
    makespan = Cf_machine.Machine.makespan machine;
  }

(* {2 Serve-everything planning}

   [plan] answers the paper's question (is there a communication-free
   partition with parallelism?); [plan_serve] never says no: when the
   theorems reject the nest it drops to the communication-minimal tier
   ([Cf_mincomm]) and returns a fallback plan whose residual accesses
   are serviced as messages at run time. *)

type planned = Exact of t | Fallback of t * Cf_mincomm.Mincomm.t

let plan_serve ?(obs = Cf_obs.Trace.null) ?(strategy = Strategy.Nonduplicate)
    ?basis ?search_radius ?(nprocs = 4) nest =
  let facts = Facts.make ?search_radius nest in
  let exact, space = analyse ~obs ~strategy facts in
  if Strategy.parallelism_degree space > 0 then begin
    let partition = partition_of ~obs nest space in
    Exact (assemble ~obs ?basis ~strategy ~exact nest space partition)
  end
  else begin
    (* The rejected Ψ is never partitioned or transformed: the fallback
       tier plans from the same analysis value, and its choice is the
       plan. *)
    let mc =
      phase obs "fallback-plan" (fun () ->
          Cf_mincomm.Mincomm.plan_of_facts ~nprocs facts)
    in
    let space = mc.Cf_mincomm.Mincomm.choice.Cf_mincomm.Mincomm.space in
    Log.debug (fun m ->
        m "fallback %s: psi = %a, %d predicted message(s)"
          mc.Cf_mincomm.Mincomm.choice.Cf_mincomm.Mincomm.origin
          Cf_linalg.Subspace.pp space
          mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages);
    Fallback
      ( assemble ~obs ?basis ~strategy ~exact nest space
          mc.Cf_mincomm.Mincomm.partition,
        mc )
  end

(* Normalization front door: fold/hoist/compress/shift first, then plan
   the normalized nest.  Unrolled, strided, shifted, or (legally)
   non-uniform inputs reach the theorems instead of being rejected at
   the door; nests normalization cannot repair come back as [Error]
   with the transform diagnostics attached. *)
let plan_normalized ?(obs = Cf_obs.Trace.null) ?strategy ?basis ?search_radius
    ?nprocs nest =
  let r =
    Cf_obs.Trace.span obs ~cat:"plan" "normalize" (fun () ->
        Cf_normalize.Normalize.normalize ~obs nest)
  in
  let reject reason = Error (r, reason) in
  if Cf_loop.Nest.cardinal r.Cf_normalize.Normalize.normalized = 0 then
    reject "empty iteration space"
  else if
    not (Cf_loop.Nest.all_uniformly_generated r.Cf_normalize.Normalize.normalized)
  then
    reject
      (match r.Cf_normalize.Normalize.rejected with
      | d :: _ -> Format.asprintf "%a" Cf_normalize.Normalize.pp_diag d
      | [] -> "non-uniformly-generated references survive normalization")
  else
    match
      plan_serve ~obs ?strategy ?basis ?search_radius ?nprocs
        r.Cf_normalize.Normalize.normalized
    with
    | planned -> Ok (r, planned)
    | exception Invalid_argument msg -> reject msg

let pipeline_of = function Exact t | Fallback (t, _) -> t
let fallback_of = function Exact _ -> None | Fallback (_, mc) -> Some mc

let simulate_serve ?backend ?procs ?(cost = Cf_machine.Cost.transputer)
    ?(comm_mode = `Service) ?(with_distribution = false) planned =
  match planned with
  | Exact t -> simulate ?backend ?procs ~cost ~with_distribution t
  | Fallback (t, mc) ->
    (* Default to the planner's machine size: the volume estimate was
       computed for exactly that placement, so predicted and simulated
       message counts coincide. *)
    let procs =
      match procs with
      | Some p -> p
      | None -> mc.Cf_mincomm.Mincomm.nprocs
    in
    let machine =
      Cf_machine.Machine.create ~comm_mode
        (Cf_machine.Topology.linear procs)
        cost
    in
    let report =
      Cf_exec.Parexec.execute_fallback ?backend
        ~charge_distribution:with_distribution ~machine
        ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
        t.partition
    in
    {
      report;
      balance =
        Cf_exec.Balance.of_counts report.Cf_exec.Parexec.per_pe_iterations;
      makespan = Cf_machine.Machine.makespan machine;
    }

let describe ppf t =
  Format.fprintf ppf "@[<v>strategy: %a@," Strategy.pp t.strategy;
  let facts = Facts.make ?exact:t.exact t.nest in
  List.iter
    (fun a ->
      Format.fprintf ppf "  Psi_%s = %a@," a Cf_linalg.Subspace.pp
        (Facts.array_space facts t.strategy a))
    (Cf_loop.Nest.arrays t.nest);
  Format.fprintf ppf "partitioning space: %a (dim %d, parallelism %d)@,"
    Cf_linalg.Subspace.pp t.space
    (Cf_linalg.Subspace.dim t.space)
    (parallelism t);
  Format.fprintf ppf "blocks: %d (largest %d, smallest %d)@," (block_count t)
    (Iter_partition.max_block_size t.partition)
    (Iter_partition.min_block_size t.partition);
  (match t.exact with
   | Some e -> Format.fprintf ppf "%a@," Cf_dep.Exact.pp_summary e
   | None -> ());
  Format.fprintf ppf "transformed loop:@,%a" Cf_transform.Parloop.pp t.parloop
