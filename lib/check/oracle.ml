open Cf_loop
open Cf_core

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  doc : string;
  check : Cf_loop.Nest.t -> verdict;
}

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

(* The planner's precondition.  A nest that violates it is outside the
   domain of every oracle that plans, so those oracles skip it before
   any planning instead of reporting the planner's refusal. *)
let uniform check nest =
  if not (Nest.all_uniformly_generated nest) then
    Skip "non-uniformly-generated references"
  else check nest

(* Small enough for every oracle: the cyclic placement exercises blocks
   sharing a PE as soon as a nest has more than three blocks. *)
let nprocs = 3

(* plan-vs-verify: each theorem's planner against the executable
   verifier on the concrete iteration space. *)

let plan_vs_verify nest =
  let rec go = function
    | [] -> Pass
    | strategy :: rest -> (
      match Verify.check_strategy strategy nest with
      | Ok () -> go rest
      | Error vs ->
        failf "strategy %a: %d violation(s), first %a" Strategy.pp strategy
          (List.length vs) Verify.pp_violation (List.hd vs))
  in
  go Strategy.all

(* coset-parity: the closed-form index, and the partition view built
   over its own index, against the materialized reference, block by
   block and member by member, and the streamed numbering the fallback
   scorer walks with against the reference's block ids, iteration by
   iteration. *)

type side = {
  side : string;
  count : int;
  block : int -> int * int array * int * int array list;
      (* id -> (id, base, size, members) *)
  lookup : int array -> int;
}

let sides nest psi =
  let cs = Coset.make nest psi in
  let view = Iter_partition.make nest psi in
  let vblocks = Iter_partition.blocks view in
  [
    { side = "index"; count = Coset.block_count cs;
      block =
        (fun id ->
          let c = Coset.block cs ~id in
          (c.Coset.id, c.Coset.base, c.Coset.size,
           Coset.block_iterations cs ~id));
      lookup = Coset.block_id_of_iteration cs };
    { side = "view"; count = Array.length vblocks;
      block =
        (fun id ->
          let b = vblocks.(id - 1) in
          (b.Iter_partition.id, b.Iter_partition.base,
           List.length b.Iter_partition.iterations,
           b.Iter_partition.iterations));
      lookup = Iter_partition.block_id_of_iteration view };
  ]

let side_parity rp s =
  let blocks = Refpartition.blocks rp in
  if s.count <> Array.length blocks then
    Some
      (Printf.sprintf "%d blocks materialized vs %d in the %s"
         (Array.length blocks) s.count s.side)
  else
    let rec go k =
      if k >= Array.length blocks then None
      else
        let b = blocks.(k) in
        let want = b.Refpartition.id and members = b.Refpartition.iterations in
        let id, base, size, iters = s.block want in
        let differs what = Some (Printf.sprintf "%s block %d %s" s.side want what) in
        if id <> want then differs (Printf.sprintf "is numbered %d" id)
        else if base <> b.Refpartition.base then differs "base differs"
        else if size <> List.length members then
          differs
            (Printf.sprintf "size %d vs %d materialized" size
               (List.length members))
        else if iters <> members then differs "member enumeration differs"
        else
          match List.find_opt (fun it -> s.lookup it <> want) members with
          | Some it ->
            Some
              (Format.asprintf "%s puts iteration %a of B%d in B%d" s.side
                 Cf_linalg.Vec.pp_int it want (s.lookup it))
          | None -> go (k + 1)
    in
    go 0

let numbering_parity nest psi rp =
  let id_of, count = Coset.numbering nest psi in
  let bad = ref None in
  Nest.iter_space nest (fun it ->
      if Option.is_none !bad then begin
        let id = id_of it in
        let expected = Refpartition.block_id_of_iteration rp it in
        if id <> expected then bad := Some (it, id, expected)
      end);
  match !bad with
  | Some (it, id, expected) ->
    Some
      (Format.asprintf "numbering puts iteration %a in B%d, reference in B%d"
         Cf_linalg.Vec.pp_int it id expected)
  | None when count () <> Refpartition.block_count rp ->
    Some
      (Printf.sprintf "numbering reached %d blocks vs %d materialized"
         (count ()) (Refpartition.block_count rp))
  | None -> None

let coset_parity nest =
  let check_space strategy =
    let psi = Strategy.partitioning_space strategy nest in
    let rp = Refpartition.make nest psi in
    let found =
      match List.find_map (side_parity rp) (sides nest psi) with
      | None -> numbering_parity nest psi rp
      | found -> found
    in
    match found with
    | Some msg -> failf "strategy %a: %s" Strategy.pp strategy msg
    | None -> Pass
  in
  match check_space Strategy.Nonduplicate with
  | Pass -> check_space Strategy.Duplicate
  | v -> v

(* parexec-vs-seq: the engine and the materialized reference executor
   ({!Refexec}) against the sequential golden run, and against each
   other (identical per-PE iteration counts).  A second, charged run of
   each pits the engine's bulk chunk sends against the reference's
   element-wise [host_send]s: the two must leave bit-identical machines
   — message counts, volume, distribution time, send trace, makespan
   and every PE's local memory. *)

let parexec_vs_seq nest =
  let run strategy =
    let plan = Cf_pipeline.Pipeline.plan ~strategy nest in
    let placement = Cf_exec.Parexec.cyclic ~nprocs in
    let machine () =
      Cf_machine.Machine.create
        (Cf_machine.Topology.linear nprocs)
        Cf_machine.Cost.transputer
    in
    let r1 =
      Refexec.execute ?exact:plan.Cf_pipeline.Pipeline.exact
        ~machine:(machine ()) ~placement ~strategy
        plan.Cf_pipeline.Pipeline.partition
    in
    let coset = Iter_partition.coset plan.Cf_pipeline.Pipeline.partition in
    let r2 =
      Cf_exec.Parexec.execute_indexed ?exact:plan.Cf_pipeline.Pipeline.exact
        ~domains:1 ~machine:(machine ()) ~placement ~strategy coset
    in
    let charged () =
      let m1 = machine () and m2 = machine () in
      ignore
        (Refexec.execute ?exact:plan.Cf_pipeline.Pipeline.exact
           ~charge_distribution:true ~validate:false ~machine:m1 ~placement
           ~strategy plan.Cf_pipeline.Pipeline.partition);
      ignore
        (Cf_exec.Parexec.execute_indexed ?exact:plan.Cf_pipeline.Pipeline.exact
           ~charge_distribution:true ~validate:false ~domains:1 ~machine:m2
           ~placement ~strategy coset);
      let module M = Cf_machine.Machine in
      let differs what f = if f m1 <> f m2 then Some what else None in
      List.find_map Fun.id
        [
          differs "message count" M.message_count;
          differs "message volume" M.message_volume;
          differs "distribution time" M.distribution_time;
          differs "send trace" M.trace;
          differs "makespan" M.makespan;
          differs "local memories" (fun m ->
              List.init nprocs (fun pe -> M.local_elements m ~pe));
        ]
    in
    if not (Cf_exec.Parexec.ok r1) then
      failf "strategy %a: reference executor diverges from sequential"
        Strategy.pp strategy
    else if not (Cf_exec.Parexec.ok r2) then
      failf "strategy %a: engine diverges from sequential" Strategy.pp
        strategy
    else if
      r1.Cf_exec.Parexec.per_pe_iterations <> r2.Cf_exec.Parexec.per_pe_iterations
    then
      failf "strategy %a: per-PE iteration counts differ from the reference"
        Strategy.pp strategy
    else
      match charged () with
      | Some what ->
        failf "strategy %a: charged distribution: %s differs from the reference"
          Strategy.pp strategy what
      | None -> Pass
  in
  let rec go = function
    | [] -> Pass
    | s :: rest -> ( match run s with Pass -> go rest | v -> v)
  in
  go [ Strategy.Nonduplicate; Strategy.Duplicate; Strategy.Min_duplicate ]

(* fault-recovery-identical: kill a PE, recover, and demand the exact
   fault-free (= sequential) result. *)

let fault_recovery nest =
  let plan = Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate nest in
  let fplan =
    Cf_fault.Fault.make ~procs:nprocs
      { Cf_fault.Fault.none with kills = [ (0, 1) ] }
  in
  let machine =
    Cf_machine.Machine.create ~faults:fplan
      (Cf_machine.Topology.linear nprocs)
      Cf_machine.Cost.transputer
  in
  let coset = Iter_partition.coset plan.Cf_pipeline.Pipeline.partition in
  let report =
    Cf_exec.Parexec.execute_indexed ?exact:plan.Cf_pipeline.Pipeline.exact
      ~domains:1 ~charge_distribution:true ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs)
      ~strategy:Strategy.Nonduplicate coset
  in
  match report.Cf_exec.Parexec.recovery with
  | None -> Fail "machine carried a fault plan but the report has no recovery"
  | Some _ when Cf_exec.Parexec.ok report -> Pass
  | Some r ->
    failf "recovered run diverges from sequential (crashed PEs: %s)"
      (String.concat ","
         (List.map string_of_int r.Cf_exec.Parexec.crashed_pes))

(* delta-checkpoint-identical: the journal-driven delta checkpoints
   against a full deep copy kept as the differential reference.  Same
   seeded fault plan, per-round cadence, both statement-body backends,
   all four strategies — restore and chunk recovery must be
   bit-for-bit indistinguishable: same recovery trajectory, same final
   local memories, same makespan.  Only [checkpoint_words] (the
   captured payload) may differ — that is the point of deltas. *)

let delta_checkpoint nest =
  let spec =
    {
      Cf_fault.Fault.none with
      seed = 5;
      kills = [ (0, 1); (2, 2) ];
      drop_rate = 0.05;
      corrupt_rate = 0.02;
    }
  in
  let run strategy backend mode =
    let plan = Cf_pipeline.Pipeline.plan ~strategy nest in
    let machine =
      Cf_machine.Machine.create
        ~faults:(Cf_fault.Fault.make ~procs:nprocs spec)
        (Cf_machine.Topology.linear nprocs)
        Cf_machine.Cost.transputer
    in
    let coset = Iter_partition.coset plan.Cf_pipeline.Pipeline.partition in
    let report =
      Cf_exec.Parexec.execute_indexed ~backend
        ?exact:plan.Cf_pipeline.Pipeline.exact ~domains:1
        ~charge_distribution:true ~checkpoint_every:1 ~checkpoint_mode:mode
        ~machine
        ~placement:(Cf_exec.Parexec.cyclic ~nprocs)
        ~strategy coset
    in
    (report, machine)
  in
  let compare_modes strategy backend =
    let bname = Cf_exec.Compile.backend_name backend in
    let rd, md = run strategy backend `Delta in
    let rf, mf = run strategy backend `Full in
    match (rd.Cf_exec.Parexec.recovery, rf.Cf_exec.Parexec.recovery) with
    | None, _ | _, None ->
      failf "strategy %a/%s: fault plan produced no recovery record"
        Strategy.pp strategy bname
    | Some d, Some f ->
      if not (Cf_exec.Parexec.ok rd) then
        failf "strategy %a/%s: delta-checkpointed run diverges from sequential"
          Strategy.pp strategy bname
      else if not (Cf_exec.Parexec.ok rf) then
        failf "strategy %a/%s: full-checkpointed run diverges from sequential"
          Strategy.pp strategy bname
      else if
        (d.Cf_exec.Parexec.crashed_pes, d.Cf_exec.Parexec.rounds,
         d.Cf_exec.Parexec.replayed_blocks,
         d.Cf_exec.Parexec.redistributed_words,
         d.Cf_exec.Parexec.checkpoints)
        <> (f.Cf_exec.Parexec.crashed_pes, f.Cf_exec.Parexec.rounds,
            f.Cf_exec.Parexec.replayed_blocks,
            f.Cf_exec.Parexec.redistributed_words,
            f.Cf_exec.Parexec.checkpoints)
      then
        failf
          "strategy %a/%s: recovery trajectories differ (delta: %d rounds %d \
           blocks %d words; full: %d rounds %d blocks %d words)"
          Strategy.pp strategy bname d.Cf_exec.Parexec.rounds
          d.Cf_exec.Parexec.replayed_blocks
          d.Cf_exec.Parexec.redistributed_words f.Cf_exec.Parexec.rounds
          f.Cf_exec.Parexec.replayed_blocks
          f.Cf_exec.Parexec.redistributed_words
      else if
        rd.Cf_exec.Parexec.per_pe_iterations
        <> rf.Cf_exec.Parexec.per_pe_iterations
      then
        failf "strategy %a/%s: per-PE iteration counts differ between modes"
          Strategy.pp strategy bname
      else if Cf_machine.Machine.makespan md <> Cf_machine.Machine.makespan mf
      then
        failf "strategy %a/%s: makespan differs between checkpoint modes"
          Strategy.pp strategy bname
      else begin
        let mem m pe = List.sort compare (Cf_machine.Machine.local_elements m ~pe) in
        let rec pes pe =
          if pe >= nprocs then Pass
          else if mem md pe <> mem mf pe then
            failf "strategy %a/%s: PE%d's recovered memory differs between modes"
              Strategy.pp strategy bname pe
          else pes (pe + 1)
        in
        pes 0
      end
  in
  let rec go = function
    | [] -> Pass
    | (strategy, backend) :: rest -> (
      match compare_modes strategy backend with Pass -> go rest | v -> v)
  in
  go
    (List.concat_map
       (fun s -> [ (s, `Compiled); (s, `Interpreted) ])
       Strategy.all)

(* compiled-vs-interpreted: the closure-specialized execution backend
   against the AST interpreter it was compiled from — bit-for-bit, on
   the sequential reference for every nest and on the machine engine
   for the nests the planner accepts (uniformly generated ones). *)

let compiled_vs_interpreted nest =
  let seq_c = Cf_exec.Seqexec.run ~backend:`Compiled nest in
  let seq_i = Cf_exec.Seqexec.run ~backend:`Interpreted nest in
  if not (Cf_exec.Seqexec.equal_on_written seq_c seq_i) then
    Fail "sequential run: compiled memory differs from interpreted"
  else if not (Nest.all_uniformly_generated nest) then
    Skip "non-uniformly-generated references"
  else
    let run strategy backend =
      let plan = Cf_pipeline.Pipeline.plan ~strategy nest in
      let machine =
        Cf_machine.Machine.create
          (Cf_machine.Topology.linear nprocs)
          Cf_machine.Cost.transputer
      in
      let coset = Iter_partition.coset plan.Cf_pipeline.Pipeline.partition in
      Cf_exec.Parexec.execute_indexed ~backend
        ?exact:plan.Cf_pipeline.Pipeline.exact ~domains:1 ~machine
        ~placement:(Cf_exec.Parexec.cyclic ~nprocs)
        ~strategy coset
    in
    let rec go = function
      | [] -> Pass
      | strategy :: rest ->
        let rc = run strategy `Compiled in
        let ri = run strategy `Interpreted in
        if
          rc.Cf_exec.Parexec.remote_access <> ri.Cf_exec.Parexec.remote_access
        then
          failf "strategy %a: backends disagree on the faulting access"
            Strategy.pp strategy
        else if rc.Cf_exec.Parexec.mismatches <> ri.Cf_exec.Parexec.mismatches
        then
          failf "strategy %a: backends disagree on result mismatches"
            Strategy.pp strategy
        else if
          rc.Cf_exec.Parexec.per_pe_iterations
          <> ri.Cf_exec.Parexec.per_pe_iterations
        then
          failf "strategy %a: per-PE iteration counts differ between backends"
            Strategy.pp strategy
        else if
          Cf_machine.Machine.max_compute_time rc.Cf_exec.Parexec.machine
          <> Cf_machine.Machine.max_compute_time ri.Cf_exec.Parexec.machine
        then
          failf "strategy %a: simulated compute time differs between backends"
            Strategy.pp strategy
        else if not (Cf_exec.Parexec.ok rc) then
          failf "strategy %a: compiled backend diverges from sequential"
            Strategy.pp strategy
        else go rest
    in
    go [ Strategy.Nonduplicate; Strategy.Duplicate; Strategy.Min_duplicate ]

(* canon-relabel-roundtrip: canonicalization idempotent and invariant
   under renaming on every nest; on the nests the planner accepts
   (uniformly generated ones) a memoized plan relabeled onto the
   renamed nest still verifies on the concrete space. *)

let canon_roundtrip nest =
  let c = Cf_cache.Canon.canonicalize nest in
  let c2 = Cf_cache.Canon.canonicalize c.Cf_cache.Canon.nest in
  if c2.Cf_cache.Canon.key <> c.Cf_cache.Canon.key then
    Fail "canonicalize is not idempotent"
  else
    let renamed =
      Cf_cache.Canon.rename
        ~index:(fun s -> s ^ "0")
        ~array:(fun s -> "Z" ^ s)
        ~scalar:(fun s -> s ^ "0")
        ~label:(fun k _ -> Printf.sprintf "T%d" (k + 1))
        nest
    in
    if Cf_cache.Canon.digest renamed <> c.Cf_cache.Canon.digest then
      Fail "renamed nest has a different canonical digest"
    else if not (Nest.all_uniformly_generated nest) then
      Skip "non-uniformly-generated references"
    else
      let plan =
        Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate
          c.Cf_cache.Canon.nest
      in
      let relabeled = Cf_pipeline.Pipeline.relabel plan renamed in
      if not (Cf_pipeline.Pipeline.verified relabeled) then
        Fail "relabeled plan fails verification on the renamed nest"
      else if
        Cf_cache.Canon.digest relabeled.Cf_pipeline.Pipeline.nest
        <> c.Cf_cache.Canon.digest
      then Fail "relabeled plan's nest left the canonical class"
      else Pass

(* cgen-roundtrip: the iteration order the C back end emits (block-major
   over the transformed forall nest) against the sequential interpreter,
   under the back end's own deterministic initialization. *)

let cgen_roundtrip nest =
  let plan = Cf_pipeline.Pipeline.plan ~strategy:Strategy.Nonduplicate nest in
  let pl = plan.Cf_pipeline.Pipeline.parloop in
  match Cf_cgen.Cgen.supports pl with
  | Error reason -> Skip reason
  | Ok () ->
    if Cf_cgen.Cgen.emit pl <> Cf_cgen.Cgen.emit pl then
      Fail "emit is nondeterministic"
    else begin
      let arrays = Nest.arrays nest in
      let init = Cf_cgen.Cgen.reference_init ~arrays in
      let scalar = Cf_cgen.Cgen.reference_scalar in
      let indices = Nest.indices nest in
      let mem : Cf_exec.Seqexec.memory = Hashtbl.create 64 in
      let exec_iter iter =
        let index v =
          let rec find k =
            if k >= Array.length indices then raise Not_found
            else if String.equal indices.(k) v then iter.(k)
            else find (k + 1)
          in
          find 0
        in
        List.iter
          (fun (st : Stmt.t) ->
            let read (r : Aref.t) =
              let el = Aref.eval index r in
              match Hashtbl.find_opt mem (r.Aref.array, Array.to_list el) with
              | Some v -> v
              | None -> init r.Aref.array el
            in
            let v = Expr.eval ~read ~scalar ~index st.Stmt.rhs in
            let el = Aref.eval index st.Stmt.lhs in
            Hashtbl.replace mem
              (st.Stmt.lhs.Aref.array, Array.to_list el)
              v)
          nest.Nest.body
      in
      Cf_transform.Parloop.iter pl (fun ~block:_ ~iter -> exec_iter iter);
      let seq = Cf_exec.Seqexec.run ~init ~scalar nest in
      if not (Cf_exec.Seqexec.equal_on_written seq mem) then
        Fail
          "block-major execution of the transformed nest diverges from the \
           sequential interpreter"
      else begin
        (* The checksum side must agree with the memory it is derived
           from — a crash here is a finding too. *)
        ignore (Cf_cgen.Cgen.expected_checksums pl);
        Pass
      end
    end

(* fallback-vs-seq: the communication-minimal tier end to end.  The
   planner shares one analysis value across its candidates and scores
   them all in one walk over their streamed block numberings, so its
   plan is first rebuilt from the unshared references: each theorem
   verdict ([Mincomm.verdicts] of a fresh analysis value) from its own
   [Strategy.partitioning_space] under the same rule (a minimal theorem
   is skipped above the exact-analysis limit), each ranked candidate's
   estimate by the reference scorer over the materialized
   [Refpartition], and the choice and its block count from those
   partitions' block counts.  The fallback plan of any
   nest (rejected by the theorems or not) must then execute bit-for-bit
   sequentially on a service-mode machine, its serviced message count
   must equal the planner's prediction on both statement-body backends,
   and a communication-free nest must degrade to the exact zero-volume
   plan. *)

module Mincomm = Cf_mincomm.Mincomm

let reference_verdict nest strategy =
  let parallelism exact =
    try
      Some
        (Strategy.parallelism_degree
           (Strategy.partitioning_space ?exact strategy nest))
    with _ -> None
  in
  if not (Strategy.uses_exact_analysis strategy) then parallelism None
  else if Nest.cardinal nest > Cf_dep.Exact.analysis_limit then None
  else
    match Cf_dep.Exact.analyze nest with
    | exact -> parallelism (Some exact)
    | exception _ -> None

let pp_parallelism ppf = function
  | Some p -> Format.fprintf ppf "parallelism %d" p
  | None -> Format.pp_print_string ppf "skipped"

let fallback_matches_reference nest (mc : Mincomm.t) =
  let placement = Cf_exec.Parexec.cyclic ~nprocs in
  (* candidate, scored estimate, reference block count and estimate *)
  let reference =
    List.map
      (fun ((c : Mincomm.candidate), e) ->
        let partition = Refpartition.make nest c.space in
        ( c,
          e,
          Refpartition.block_count partition,
          Refpartition.estimate ~placement partition ))
      mc.ranked
  in
  let expected_choice =
    match List.find_opt (fun (_, _, blocks, _) -> blocks >= 2) reference with
    | Some (c, _, blocks, _) -> Some (c, blocks)
    | None ->
      Option.map (fun (c, _, blocks, _) -> (c, blocks)) (List.nth_opt reference 0)
  in
  let planned = Mincomm.verdicts (Facts.make nest) in
  let verdicts = List.map (reference_verdict nest) Strategy.all in
  match
    List.find_opt
      (fun ((v : Mincomm.verdict), r) -> v.parallelism <> r)
      (List.combine planned verdicts)
  with
  | exception Invalid_argument _ ->
    failf "%d theorem verdict(s), expected %d" (List.length planned)
      (List.length Strategy.all)
  | Some (v, r) ->
    failf "theorem %d: %a, reference %a"
      (Mincomm.theorem_number v.strategy)
      pp_parallelism v.parallelism pp_parallelism r
  | None -> (
    match List.find_opt (fun (_, e, _, r) -> e <> r) reference with
    | Some (c, e, _, r) ->
      failf
        "candidate %s: scored %d message(s) over %d block(s), reference \
         partition %d over %d"
        c.origin e.messages (Array.length e.per_block) r.messages
        (Array.length r.per_block)
    | None -> (
      match expected_choice with
      | None -> Fail "no candidate was ranked"
      | Some (c, _) when not (String.equal c.origin mc.choice.origin) ->
        failf "choice %s, reference ranking chooses %s" mc.choice.origin
          c.origin
      | Some (_, blocks) ->
        if blocks <> Iter_partition.block_count mc.partition then
          failf "choice %s: %d block(s) planned vs %d materialized"
            mc.choice.origin
            (Iter_partition.block_count mc.partition)
            blocks
        else if
          not
            (Cf_linalg.Subspace.equal mc.choice.space
               (Iter_partition.space mc.partition))
        then
          failf "choice %s: partition is not over its space" mc.choice.origin
        else Pass))

let fallback_runs_sequential nest (mc : Mincomm.t) =
  let origin = mc.choice.origin in
  let predicted = mc.estimate.messages in
  let run backend =
    let machine =
      Cf_machine.Machine.create ~comm_mode:`Service
        (Cf_machine.Topology.linear nprocs)
        Cf_machine.Cost.transputer
    in
    let report =
      Cf_exec.Parexec.execute_fallback ~backend ~machine
        ~placement:(Cf_exec.Parexec.cyclic ~nprocs)
        mc.partition
    in
    (report, Cf_machine.Machine.serviced_messages machine)
  in
  let rc, serviced_c = run `Compiled in
  let ri, serviced_i = run `Interpreted in
  if not (Cf_exec.Parexec.ok rc) then
    failf "fallback %s: compiled run diverges from sequential" origin
  else if not (Cf_exec.Parexec.ok ri) then
    failf "fallback %s: interpreted run diverges from sequential" origin
  else if serviced_c <> serviced_i then
    failf "fallback %s: %d serviced message(s) compiled vs %d interpreted"
      origin serviced_c serviced_i
  else if serviced_c <> predicted then
    failf "fallback %s: predicted %d message(s) but simulated %d" origin
      predicted serviced_c
  else if mc.comm_free then begin
    let psi_nd = Strategy.partitioning_space Strategy.Nonduplicate nest in
    if predicted <> 0 then
      failf "communication-free nest predicted %d message(s)" predicted
    else if not (Cf_linalg.Subspace.equal mc.choice.space psi_nd) then
      Fail "communication-free nest's fallback is not the exact plan"
    else Pass
  end
  else Pass

let fallback_vs_seq nest =
  if Nest.cardinal nest = 0 then Skip "empty iteration space"
  else if Cf_exec.Compile.max_rank (Cf_exec.Compile.make nest) > 7 then
    Skip "subscript arity exceeds the packed-coordinate limit"
  else begin
    let mc = Mincomm.plan ~nprocs nest in
    match fallback_matches_reference nest mc with
    | Pass -> fallback_runs_sequential nest mc
    | v -> v
  end

(* normalize-roundtrip: the normalization front door proves its own
   work.  Every emitted witness must pass both machine checks —
   syntactic reconstruction of the original nest and bit-for-bit
   sequential replay through the witness's data maps — and
   [Pipeline.plan_normalized] must accept exactly the nests
   normalization makes uniform. *)

let normalize_roundtrip nest =
  let r = Cf_normalize.Normalize.normalize nest in
  match Cf_normalize.Normalize.check r with
  | Error msg -> failf "witness check failed: %s" msg
  | Ok () -> (
      let n = r.Cf_normalize.Normalize.normalized in
      let plannable =
        Nest.cardinal n > 0 && Nest.all_uniformly_generated n
      in
      match Cf_pipeline.Pipeline.plan_normalized nest with
      | Ok _ when plannable -> Pass
      | Error _ when not plannable -> Pass
      | Ok _ -> Fail "plan_normalized accepted a nest normalization left non-uniform"
      | Error (_, reason) ->
          failf "plan_normalized rejected a normalized nest: %s" reason)

let all =
  [
    { name = "plan-vs-verify";
      doc = "Theorem 1-4 planners vs Verify on the concrete space";
      check = uniform plan_vs_verify };
    { name = "coset-parity";
      doc =
        "closed-form Coset index and the Iter_partition view vs the \
         materialized Refpartition";
      check = uniform coset_parity };
    { name = "parexec-vs-seq";
      doc =
        "engine and materialized reference vs the sequential interpreter; \
         charged bulk vs element-wise distribution";
      check = uniform parexec_vs_seq };
    { name = "fault-recovery-identical";
      doc = "crash recovery reproduces the fault-free result";
      check = uniform fault_recovery };
    { name = "delta-checkpoint-identical";
      doc =
        "journaled delta checkpoints recover bit-for-bit like full deep \
         copies, per-round cadence, both backends, all strategies";
      check = uniform delta_checkpoint };
    { name = "compiled-vs-interpreted";
      doc =
        "closure-specialized backend bit-for-bit vs the interpreter: \
         sequentially on every nest, on the engine when uniformly \
         generated";
      check = compiled_vs_interpreted };
    { name = "canon-relabel-roundtrip";
      doc =
        "canonical form stable under renaming on every nest; relabeled \
         plans verify when uniformly generated";
      check = canon_roundtrip };
    { name = "cgen-roundtrip";
      doc = "C back end's block-major order vs the sequential interpreter";
      check = uniform cgen_roundtrip };
    { name = "fallback-vs-seq";
      doc =
        "fallback verdicts, scores and choice match the unshared \
         Refpartition reference; runs bit-for-bit sequential; \
         predicted volume = serviced messages";
      check = uniform fallback_vs_seq };
    { name = "normalize-roundtrip";
      doc =
        "normalization witnesses reconstruct the original and replay \
         bit-for-bit on the sequential executor";
      check = normalize_roundtrip };
  ]

let find name = List.find_opt (fun o -> String.equal o.name name) all
let names = List.map (fun o -> o.name) all

let check o nest =
  match o.check nest with
  | v -> v
  | exception e -> Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))
