(* Property tests over random 3-nested loops: the 2-D generator in
   Testutil cannot exercise partitioning spaces of intermediate
   dimension (0 < dim < n - 1), loop transformation with several inner
   loops, or 3-D Fourier-Motzkin elimination.  Everything here runs the
   same theorem-level checks at depth 3. *)

open Cf_loop
open Cf_core
open Testutil

(* Random uniformly generated 3-nested loops, d = 2 subscripts — the
   generator is shared with the fuzzer (Cf_check.Gen). *)
let arbitrary_nest3 = Cf_check.Gen.arbitrary_nest3

(* Depth-3 nests biased hard toward rank-deficient reference matrices
   (rank H <= 1 forced), the regime where the kernel is at least
   2-dimensional and redundancy elimination matters. *)
let arbitrary_nest3_rank_deficient =
  let params =
    { (Cf_check.Gen.default ~depth:3) with
      Cf_check.Gen.rank_deficient_permil = 1000 }
  in
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Nest.pp t)
    (Cf_check.Gen.nest params)

let coverage nest pl =
  let got = ref [] in
  Cf_transform.Parloop.iter pl (fun ~block:_ ~iter -> got := iter :: !got);
  List.sort compare !got = List.sort compare (Nest.iterations nest)

let properties =
  [
    qtest "Theorem 1 at depth 3" ~count:40
      (fun nest ->
        match Verify.check_strategy Strategy.Nonduplicate nest with
        | Ok () -> true
        | Error _ -> false)
      arbitrary_nest3;
    qtest "Theorem 2 at depth 3" ~count:40
      (fun nest ->
        match Verify.check_strategy Strategy.Duplicate nest with
        | Ok () -> true
        | Error _ -> false)
      arbitrary_nest3;
    qtest "Theorems 3/4 at depth 3" ~count:25
      (fun nest ->
        (match Verify.check_strategy Strategy.Min_nonduplicate nest with
         | Ok () -> true
         | Error _ -> false)
        &&
        (match Verify.check_strategy Strategy.Min_duplicate nest with
         | Ok () -> true
         | Error _ -> false))
      arbitrary_nest3;
    qtest "transform covers the space at depth 3" ~count:40
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate nest in
        coverage nest (Cf_transform.Transformer.transform nest psi))
      arbitrary_nest3;
    qtest "duplicate-space transform covers at depth 3" ~count:40
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Duplicate nest in
        coverage nest (Cf_transform.Transformer.transform nest psi))
      arbitrary_nest3;
    qtest "parallel = sequential execution at depth 3" ~count:25
      (fun nest ->
        let plan =
          Cf_pipeline.Pipeline.plan ~strategy:Strategy.Duplicate nest
        in
        let sim = Cf_pipeline.Pipeline.simulate ~procs:4 plan in
        Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report)
      arbitrary_nest3;
    qtest "symbolic deps complete wrt exact at depth 3" ~count:40
      (fun nest ->
        let exact = Cf_dep.Exact.analyze nest in
        let key (d : Cf_dep.Analysis.dep) =
          ( d.array,
            (d.src.Nest.stmt_index, d.src.Nest.site_index),
            (d.dst.Nest.stmt_index, d.dst.Nest.site_index),
            d.kind )
        in
        let symbolic =
          List.map key (Cf_dep.Analysis.deps ~search_radius:8 nest)
        in
        List.for_all
          (fun d -> List.mem (key d) symbolic)
          (Cf_dep.Exact.all_deps exact))
      arbitrary_nest3;
    qtest "blocks partition the space at depth 3" ~count:40
      (fun nest ->
        let psi = Strategy.partitioning_space Strategy.Nonduplicate nest in
        let members =
          Array.to_list (Iter_partition.blocks (Iter_partition.make nest psi))
          |> List.concat_map (fun (b : Iter_partition.block) -> b.iterations)
        in
        let reference =
          Array.to_list
            (Cf_check.Refpartition.blocks (Cf_check.Refpartition.make nest psi))
          |> List.concat_map (fun (b : Cf_check.Refpartition.block) ->
                 b.iterations)
        in
        List.sort compare members = List.sort compare (Nest.iterations nest)
        && members = reference)
      arbitrary_nest3;
  ]

(* Parser fuzzing: pretty-print random nests and reparse them; the
   round trip must preserve structure and semantics. *)
let fuzz =
  [
    qtest "pp/reparse preserves structure (depth 2)" ~count:120
      (fun nest ->
        let printed = Format.asprintf "@[<v>%a@]" Nest.pp nest in
        let nest' = Parse.nest printed in
        Nest.cardinal nest = Nest.cardinal nest'
        && Nest.arrays nest = Nest.arrays nest'
        && Nest.depth nest = Nest.depth nest')
      arbitrary_nest;
    qtest "pp/reparse preserves semantics (depth 2)" ~count:60
      (fun nest ->
        let printed = Format.asprintf "@[<v>%a@]" Nest.pp nest in
        let nest' = Parse.nest printed in
        Cf_exec.Seqexec.equal_on_written (Cf_exec.Seqexec.run nest)
          (Cf_exec.Seqexec.run nest'))
      arbitrary_nest;
    qtest "pp/reparse preserves structure (depth 3)" ~count:60
      (fun nest ->
        let printed = Format.asprintf "@[<v>%a@]" Nest.pp nest in
        let nest' = Parse.nest printed in
        Nest.cardinal nest = Nest.cardinal nest'
        && Nest.arrays nest = Nest.arrays nest')
      arbitrary_nest3;
    qtest "pp/reparse preserves dependences (depth 2)" ~count:40
      (fun nest ->
        let printed = Format.asprintf "@[<v>%a@]" Nest.pp nest in
        let nest' = Parse.nest printed in
        let key (d : Cf_dep.Analysis.dep) =
          (d.array, d.kind, Array.to_list d.witness)
        in
        List.sort_uniq compare (List.map key (Cf_dep.Analysis.deps nest))
        = List.sort_uniq compare (List.map key (Cf_dep.Analysis.deps nest')))
      arbitrary_nest;
  ]

(* Rank-deficient reference matrices at depth 3.  With rank H <= 1 the
   kernel of H is at least 2-dimensional, which is exactly where the
   minimality theorems (3/4) diverge from the basic ones: eliminating
   redundant references can shrink the partitioning space and recover
   parallelism that Theorem 1 alone cannot see. *)
let theorem3_nest =
  Parse.nest
    {|
for i = 1 to 3
  for j = 1 to 3
    for k = 1 to 3
      S1: A[i+j+k, i+j+k] := A[i+j+k-1, i+j+k-1] + B[i+j+k, i+j+k];
      S2: A[i+j+k-1, i+j+k-1] := B[i+j+k-1, i+j+k-1] + 1;
    end
  end
end
|}

let rank2_nest =
  Parse.nest
    {|
for i = 1 to 2
  for j = 1 to 2
    for k = 1 to 2
      A[i+j, k] := A[i+j-1, k] + 1;
    end
  end
end
|}

let space_stats strategy nest =
  let psi = Strategy.partitioning_space strategy nest in
  (Cf_linalg.Subspace.dim psi, Iter_partition.block_count (Iter_partition.make nest psi))

let rank_deficient =
  [
    qtest "rank-deficient depth-3 nests satisfy all strategies" ~count:25
      (fun nest ->
        List.for_all
          (fun s ->
            match Verify.check_strategy s nest with
            | Ok () -> true
            | Error _ -> false)
          Strategy.all)
      arbitrary_nest3_rank_deficient;
    qtest "rank-deficient depth-3: parallel = sequential" ~count:15
      (fun nest ->
        let plan =
          Cf_pipeline.Pipeline.plan ~strategy:Strategy.Min_duplicate nest
        in
        let sim = Cf_pipeline.Pipeline.simulate ~procs:4 plan in
        Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report)
      arbitrary_nest3_rank_deficient;
    ( "Theorem 3 recovers parallelism on a shrunk rank-1 nest",
      `Quick,
      fun () ->
        (* Without redundancy elimination the self-flow chain through
           A[i+j+k, i+j+k] forces the whole 3-D space into one block;
           Theorem 3 removes the redundant S2 write and exposes three
           communication-free blocks along the kernel cosets. *)
        check_int "nonduplicate dim" 3
          (fst (space_stats Strategy.Nonduplicate theorem3_nest));
        check_int "nonduplicate blocks" 1
          (snd (space_stats Strategy.Nonduplicate theorem3_nest));
        check_int "min-nonduplicate dim" 2
          (fst (space_stats Strategy.Min_nonduplicate theorem3_nest));
        check_int "min-nonduplicate blocks" 3
          (snd (space_stats Strategy.Min_nonduplicate theorem3_nest));
        List.iter
          (fun s ->
            check_bool
              ("verifies under " ^ Strategy.to_string s)
              true
              (match Verify.check_strategy s theorem3_nest with
              | Ok () -> true
              | Error _ -> false))
          Strategy.all );
    ( "Theorem 3 example executes correctly in parallel",
      `Quick,
      fun () ->
        let plan =
          Cf_pipeline.Pipeline.plan ~strategy:Strategy.Min_nonduplicate
            theorem3_nest
        in
        let sim = Cf_pipeline.Pipeline.simulate ~procs:3 plan in
        check_bool "parallel = sequential" true
          (Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report) );
    ( "rank-2 depth-3 nest partitions into two blocks",
      `Quick,
      fun () ->
        List.iter
          (fun s ->
            let dim, blocks = space_stats s rank2_nest in
            check_int ("dim under " ^ Strategy.to_string s) 2 dim;
            check_int ("blocks under " ^ Strategy.to_string s) 2 blocks;
            check_bool
              ("verifies under " ^ Strategy.to_string s)
              true
              (match Verify.check_strategy s rank2_nest with
              | Ok () -> true
              | Error _ -> false))
          Strategy.all );
  ]

let suites =
  [
    ("depth3-properties", properties);
    ("depth3-rank-deficient", rank_deficient);
    ("parser-fuzz", fuzz);
  ]
