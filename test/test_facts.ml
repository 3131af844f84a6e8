(* The per-nest analysis value: every memoized part against its
   unshared Refspace/Strategy definition, memoization itself (a part
   forced twice is the same value), the theorem-verdict rule, and the
   fallback tier fed the value plan_serve planned with. *)

open Cf_linalg
open Cf_core
open Testutil
module Exact = Cf_dep.Exact
module Mincomm = Cf_mincomm.Mincomm
module Pipeline = Cf_pipeline.Pipeline

let subspace = Alcotest.testable Subspace.pp Subspace.equal

let corpus_nests () =
  let exe_dir = Filename.dirname Sys.executable_name in
  match
    List.find_opt Sys.file_exists
      [
        Filename.concat exe_dir "corpus";
        Filename.concat exe_dir "../../../test/corpus";
        "corpus";
      ]
  with
  | Some dir -> Cf_check.Corpus.load dir
  | None -> Alcotest.fail "test/corpus not found"

(* The paper loops, the regression corpus, every workload kernel at
   size 6, and 40 generated nests per depth. *)
let inputs () =
  all_paper_loops @ corpus_nests ()
  @ List.map
      (fun (k : Cf_workloads.Workloads.kernel) -> (k.name, k.build ~size:6))
      Cf_workloads.Workloads.all
  @ List.concat_map
      (fun depth ->
        List.init 40 (fun index ->
            ( Printf.sprintf "gen depth %d #%d" depth index,
              Cf_check.Gen.generate ~seed:7 ~index
                (Cf_check.Gen.default ~depth) )))
      [ 1; 2; 3 ]

let plannable nest =
  Cf_loop.Nest.all_uniformly_generated nest && Cf_loop.Nest.cardinal nest > 0

(* Ψ of a strategy as the join of Refspace's own per-array spaces. *)
let joined nest arrays space =
  Subspace.join_all (Cf_loop.Nest.depth nest) (List.map space arrays)

let check_same name a b = check_bool (name ^ " is memoized") true (a == b)

let check_nest ?search_radius (name, nest) =
  let tag part =
    Printf.sprintf "%s (radius %s): %s" name
      (match search_radius with None -> "default" | Some r -> string_of_int r)
      part
  in
  let f = Facts.make ?search_radius nest in
  let arrays = Cf_loop.Nest.arrays nest in
  List.iter
    (fun a ->
      Alcotest.check subspace (tag ("Psi_" ^ a))
        (Refspace.reference_space ?search_radius nest a)
        (Facts.array_space f Strategy.Nonduplicate a);
      Alcotest.check subspace (tag ("Psi^r_" ^ a))
        (Refspace.reduced_reference_space ?search_radius nest a)
        (Facts.array_space f Strategy.Duplicate a);
      check_bool (tag ("deps of " ^ a)) true
        (Facts.deps f a = Cf_dep.Analysis.deps_of_array ?search_radius nest a);
      check_same (tag ("deps of " ^ a)) (Facts.deps f a) (Facts.deps f a);
      check_same (tag ("Psi_" ^ a))
        (Facts.array_space f Strategy.Nonduplicate a)
        (Facts.array_space f Strategy.Nonduplicate a);
      check_same (tag ("Psi^r_" ^ a))
        (Facts.array_space f Strategy.Duplicate a)
        (Facts.array_space f Strategy.Duplicate a))
    arrays;
  let definitions =
    [
      (Strategy.Nonduplicate, Refspace.reference_space ?search_radius nest);
      ( Strategy.Duplicate,
        Refspace.reduced_reference_space ?search_radius nest );
    ]
  in
  let definitions =
    if Cf_loop.Nest.cardinal nest > Exact.analysis_limit then definitions
    else begin
      let exact = Exact.analyze nest in
      check_bool (tag "exact within the limit") true (Facts.exact f <> None);
      check_same (tag "exact") (Facts.exact_result f) (Facts.exact_result f);
      List.iter
        (fun a ->
          Alcotest.check subspace (tag ("Psi^min_" ^ a))
            (Refspace.minimal_reference_space exact a)
            (Facts.array_space f Strategy.Min_nonduplicate a);
          Alcotest.check subspace (tag ("Psi^min^r_" ^ a))
            (Refspace.minimal_reduced_reference_space exact a)
            (Facts.array_space f Strategy.Min_duplicate a);
          check_same (tag ("Psi^min_" ^ a))
            (Facts.array_space f Strategy.Min_nonduplicate a)
            (Facts.array_space f Strategy.Min_nonduplicate a))
        arrays;
      definitions
      @ [
          (Strategy.Min_nonduplicate, Refspace.minimal_reference_space exact);
          ( Strategy.Min_duplicate,
            Refspace.minimal_reduced_reference_space exact );
        ]
    end
  in
  List.iter
    (fun (strategy, space) ->
      let s = Strategy.to_string strategy in
      let psi = Facts.partitioning_space f strategy in
      Alcotest.check subspace (tag ("Psi of " ^ s)) (joined nest arrays space)
        psi;
      Alcotest.check subspace (tag ("Strategy Psi of " ^ s))
        (Strategy.partitioning_space ?search_radius
           ?exact:
             (if Strategy.uses_exact_analysis strategy then Facts.exact f
              else None)
           strategy nest)
        psi;
      check_same (tag ("Psi of " ^ s)) psi
        (Facts.partitioning_space f strategy);
      check_bool (tag ("verdict of " ^ s)) true
        (Facts.verdict f strategy = Some (Strategy.parallelism_degree psi)))
    definitions

let every_part_matches_its_definition () =
  let nests = List.filter (fun (_, n) -> plannable n) (inputs ()) in
  check_bool "enough inputs" true (List.length nests >= 125);
  List.iter
    (fun nest ->
      check_nest nest;
      check_nest ~search_radius:0 nest)
    nests

(* A minimal verdict follows the iteration-space limit, not whether an
   exact result happens to be at hand. *)
let verdict_limit_rule () =
  let big =
    Cf_loop.Parse.nest
      (Printf.sprintf "for i = 1 to %d\n  A[i] := A[i - 1] + 1;\nend"
         (Exact.analysis_limit + 1))
  in
  let f = Facts.make ~exact:(Exact.analyze big) big in
  check_bool "no exact above the limit" true (Facts.exact f = None);
  check_int "Psi^min is still available" 1
    (Subspace.dim (Facts.partitioning_space f Strategy.Min_nonduplicate));
  List.iter
    (fun strategy ->
      check_bool
        (Strategy.to_string strategy ^ " verdict")
        true
        (Facts.verdict f strategy
        =
        if Strategy.uses_exact_analysis strategy then None else Some 0))
    Strategy.all

(* plan_serve hands its analysis value to the fallback tier; the plan
   must be the one a fresh Mincomm.plan computes.  [cfalloc analyze]
   prints the verdicts of the value it planned with, which must be a
   fresh value's. *)
let handover_keeps_the_plan () =
  let nests =
    all_paper_loops
    @ List.init 20 (fun index ->
          ( Printf.sprintf "gen #%d" index,
            Cf_check.Gen.generate ~seed:11 ~index
              (Cf_check.Gen.default ~depth:2) ))
  in
  let rejected = ref 0 in
  List.iter
    (fun (name, nest) ->
      List.iter
        (fun search_radius ->
          List.iter
            (fun strategy ->
              match Pipeline.plan_serve ~strategy ?search_radius nest with
              | Pipeline.Exact _ -> ()
              | Pipeline.Fallback (t, mc) ->
                incr rejected;
                let fresh = Mincomm.plan ?search_radius nest in
                let tag =
                  Printf.sprintf "%s under %s" name
                    (Strategy.to_string strategy)
                in
                let planned = Facts.make ?search_radius nest in
                ignore (Pipeline.plan_of_facts ~strategy planned);
                check_bool (tag ^ ": verdicts") true
                  (Mincomm.verdicts planned
                  = Mincomm.verdicts (Facts.make ?search_radius nest));
                check_string (tag ^ ": choice") fresh.Mincomm.choice.origin
                  mc.Mincomm.choice.origin;
                let origins (p : Mincomm.t) =
                  List.map (fun (c, e) -> (c.Mincomm.origin, e)) p.ranked
                in
                check_bool (tag ^ ": ranking") true
                  (origins mc = origins fresh);
                Alcotest.check subspace (tag ^ ": plan space")
                  mc.Mincomm.choice.space t.Pipeline.space)
            Strategy.all)
        [ None; Some 0 ])
    nests;
  check_bool "some nests fall back" true (!rejected > 0)

let cases =
  [
    Alcotest.test_case "every part equals its Refspace/Strategy definition"
      `Quick every_part_matches_its_definition;
    Alcotest.test_case "minimal verdicts follow the iteration-space limit"
      `Quick verdict_limit_rule;
    Alcotest.test_case "plan_serve's handover keeps the fallback plan" `Quick
      handover_keeps_the_plan;
  ]

let suites = [ ("facts", cases) ]
