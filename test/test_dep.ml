open Cf_loop
open Cf_dep
open Testutil

let kind = Alcotest.testable Kind.pp Kind.equal

let kind_cases =
  [
    Alcotest.test_case "of_accesses" `Quick (fun () ->
        Alcotest.check kind "flow" Kind.Flow
          (Kind.of_accesses ~src:Nest.Write ~dst:Nest.Read);
        Alcotest.check kind "anti" Kind.Anti
          (Kind.of_accesses ~src:Nest.Read ~dst:Nest.Write);
        Alcotest.check kind "output" Kind.Output
          (Kind.of_accesses ~src:Nest.Write ~dst:Nest.Write);
        Alcotest.check kind "input" Kind.Input
          (Kind.of_accesses ~src:Nest.Read ~dst:Nest.Read));
  ]

let witness_cases =
  [
    Alcotest.test_case "L1: H_A t = (2,1) realizable by (1,1)" `Quick (fun () ->
        let h = [| [| 2; 0 |]; [| 0; 1 |] |] in
        match Witness.realizable ~h ~halfwidths:[| 3; 3 |] [| 2; 1 |] with
        | Some t -> Alcotest.check Alcotest.(array int) "witness" [| 1; 1 |] t
        | None -> Alcotest.fail "expected witness");
    Alcotest.test_case "L2: H_B t = (1,1) not realizable" `Quick (fun () ->
        let h = [| [| 2; 0 |]; [| 0; 1 |] |] in
        check_bool "no integer witness" true
          (Witness.realizable ~h ~halfwidths:[| 3; 3 |] [| 1; 1 |] = None));
    Alcotest.test_case "L2: H_A t = (0,-1) inconsistent" `Quick (fun () ->
        let h = [| [| 1; 1 |]; [| 1; 1 |] |] in
        check_bool "no rational solution" true
          (Witness.rational_solution h [| 0; -1 |] = None);
        check_bool "no witness" true
          (Witness.realizable ~h ~halfwidths:[| 3; 3 |] [| 0; -1 |] = None));
    Alcotest.test_case "L2: H_A t = (1,1) realizable" `Quick (fun () ->
        let h = [| [| 1; 1 |]; [| 1; 1 |] |] in
        match Witness.realizable ~h ~halfwidths:[| 3; 3 |] [| 1; 1 |] with
        | Some t ->
          check_int "sum is 1" 1 (t.(0) + t.(1));
          check_bool "in box" true (abs t.(0) <= 3 && abs t.(1) <= 3)
        | None -> Alcotest.fail "expected witness");
    Alcotest.test_case "directed witness honours ordering" `Quick (fun () ->
        let h = [| [| 1; 0 |]; [| 0; 1 |] |] in
        (* H t = 0: only t = 0 works; needs src before dst. *)
        check_bool "same iteration needs order" true
          (Witness.directed_witness ~h ~halfwidths:[| 3; 3 |]
             ~src_before_dst:false [| 0; 0 |]
           = None);
        check_bool "ordered same iteration ok" true
          (Witness.directed_witness ~h ~halfwidths:[| 3; 3 |]
             ~src_before_dst:true [| 0; 0 |]
           = Some [| 0; 0 |]));
    Alcotest.test_case "lex sign helpers" `Quick (fun () ->
        check_bool "positive" true (Witness.lex_positive [| 0; 2 |]);
        check_bool "negative" true (Witness.lex_negative [| 0; -2 |]);
        check_bool "zero neither" false
          (Witness.lex_positive [| 0; 0 |] || Witness.lex_negative [| 0; 0 |]));
  ]

let drv_cases =
  [
    Alcotest.test_case "L1 data-referenced vectors" `Quick (fun () ->
        Alcotest.check
          Alcotest.(list (array int))
          "A" [ [| 2; 1 |] ]
          (Analysis.data_referenced_vectors l1 "A");
        Alcotest.check
          Alcotest.(list (array int))
          "C" [ [| 1; 1 |] ]
          (Analysis.data_referenced_vectors l1 "C");
        Alcotest.check
          Alcotest.(list (array int))
          "B (single ref)" []
          (Analysis.data_referenced_vectors l1 "B"));
    Alcotest.test_case "L2 data-referenced vectors of A" `Quick (fun () ->
        (* Three distinct refs: (0,0), (-1,-1), (-1,0) -> three pair
           differences. *)
        check_int "count" 3
          (List.length (Analysis.data_referenced_vectors l2 "A")));
  ]

let analysis_cases =
  [
    Alcotest.test_case "L1 dependences" `Quick (fun () ->
        let deps_a = Analysis.deps_of_array l1 "A" in
        check_bool "flow on A" true
          (List.exists
             (fun (d : Analysis.dep) ->
               Kind.equal d.kind Kind.Flow && d.witness = [| 1; 1 |])
             deps_a);
        let deps_c = Analysis.deps_of_array l1 "C" in
        check_bool "input on C" true
          (List.exists
             (fun (d : Analysis.dep) ->
               Kind.equal d.kind Kind.Input && d.witness = [| 1; 1 |])
             deps_c);
        check_bool "B carries nothing" true (Analysis.deps_of_array l1 "B" = []));
    Alcotest.test_case "L2 carries no flow dependences" `Quick (fun () ->
        (* Writes stay on the diagonal, the single read is off-diagonal:
           output/input dependences remain but nothing forces data
           transfer under duplication (both arrays fully duplicable). *)
        check_bool "A no flow" false (Analysis.has_flow_dep l2 "A");
        check_bool "B no deps at all" true (Analysis.deps_of_array l2 "B" = []);
        check_bool "A has an output dep" true
          (List.exists
             (fun (d : Analysis.dep) -> Kind.equal d.kind Kind.Output)
             (Analysis.deps_of_array l2 "A")));
    Alcotest.test_case "duplicability (Definition 5)" `Quick (fun () ->
        let dup = Alcotest.of_pp Analysis.pp_duplicability in
        Alcotest.check dup "L2 A fully" Analysis.Fully
          (Analysis.duplicability l2 "A");
        Alcotest.check dup "L1 A partially" Analysis.Partially
          (Analysis.duplicability l1 "A");
        Alcotest.check dup "L1 C fully (input only)" Analysis.Fully
          (Analysis.duplicability l1 "C");
        let l5 = l5 ~m:4 in
        Alcotest.check dup "L5 A fully" Analysis.Fully
          (Analysis.duplicability l5 "A");
        Alcotest.check dup "L5 C partially" Analysis.Partially
          (Analysis.duplicability l5 "C"));
  ]

let graph_cases =
  [
    Alcotest.test_case "L3 graph matches Fig. 7" `Quick (fun () ->
        (* Vertex numbering here is textual: r1 = A[i-1,j-1] (read of S1),
           r2 = A[i+1,j-2] (read of S2) — the paper swaps the two read
           labels but draws the same six dependences. *)
        let g = Graph.build l3 "A" in
        check_int "writes" 2 (List.length g.Graph.writes);
        check_int "reads" 2 (List.length g.Graph.reads);
        let has src dst k =
          List.exists
            (fun (e : Graph.edge) ->
              e.src = src && e.dst = dst && Kind.equal e.kind k)
            g.Graph.edges
        in
        check_bool "output w1->w2" true (has (Graph.W 1) (Graph.W 2) Kind.Output);
        check_bool "input between the reads" true
          (has (Graph.R 1) (Graph.R 2) Kind.Input
           || has (Graph.R 2) (Graph.R 1) Kind.Input);
        check_bool "flow w1->r1" true (has (Graph.W 1) (Graph.R 1) Kind.Flow);
        check_bool "flow w2->r1" true (has (Graph.W 2) (Graph.R 1) Kind.Flow);
        check_bool "anti r2->w1" true (has (Graph.R 2) (Graph.W 1) Kind.Anti);
        check_bool "anti r2->w2" true (has (Graph.R 2) (Graph.W 2) Kind.Anti));
    Alcotest.test_case "vertex naming and dot" `Quick (fun () ->
        let g = Graph.build l3 "A" in
        check_string "w" "w1" (Graph.vertex_name (Graph.W 1));
        check_string "r" "r2" (Graph.vertex_name (Graph.R 2));
        let dot = Graph.to_dot g in
        check_bool "digraph" true
          (String.length dot > 10 && String.sub dot 0 7 = "digraph"));
  ]

let exact_cases =
  [
    Alcotest.test_case "L3 redundancy (Sec. III.C)" `Quick (fun () ->
        let r = Exact.analyze l3 in
        Alcotest.check
          Alcotest.(list (array int))
          "N(S1) = {(i,4)}"
          [ [| 1; 4 |]; [| 2; 4 |]; [| 3; 4 |]; [| 4; 4 |] ]
          (Exact.n_set r 0);
        check_int "N(S2) complete" 16 (List.length (Exact.n_set r 1));
        check_int "redundant count" 12
          (List.length (Exact.redundant_computations r));
        check_bool "specific redundancy" true
          (Exact.is_redundant r ~stmt_index:0 [| 2; 2 |]);
        check_bool "surviving" false
          (Exact.is_redundant r ~stmt_index:0 [| 2; 4 |]));
    Alcotest.test_case "L3 useful dependence vectors" `Quick (fun () ->
        let r = Exact.analyze l3 in
        let all = Exact.dep_vectors (Exact.useful_deps r) "A" in
        check_bool "flow (1,0)" true (List.mem [| 1; 0 |] all);
        check_bool "anti (1,-1)" true (List.mem [| 1; -1 |] all);
        let flows =
          Exact.dep_vectors ~kinds:[ Kind.Flow ] (Exact.useful_deps r) "A"
        in
        Alcotest.check
          Alcotest.(list (array int))
          "flow only" [ [| 1; 0 |] ] flows);
    Alcotest.test_case "paper's S1'-S4' example (Sec. III.C)" `Quick (fun () ->
        (* The four-statement loop the paper uses to illustrate both
           redundancy cases: S2'(2,2) is redundant because B[2,2] is
           overwritten by S4'(2,3) unread; S1'(2,1) is redundant because
           A[2,1] is read only by the redundant S2'(2,2) before S3'(3,2)
           overwrites it. *)
        let nest =
          Cf_loop.Parse.nest
            {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i, j] := C[i, j] * 3;
    S2: B[i, j] := A[i, j-1] / D;
    S3: A[i-1, j-1] := E[i, j-1] / F + 11;
    S4: B[i, j-1] := G * 5 - K;
  end
end
|}
        in
        let r = Exact.analyze nest in
        check_bool "S2'(2,2) redundant" true
          (Exact.is_redundant r ~stmt_index:1 [| 2; 2 |]);
        check_bool "S1'(2,1) redundant" true
          (Exact.is_redundant r ~stmt_index:0 [| 2; 1 |]);
        (* S4' writes are final for their elements within each row except
           where the next row's S2' overwrites nothing (B[i,0] etc.):
           sanity-check that some computations survive on every
           statement. *)
        List.iter
          (fun k ->
            check_bool (Printf.sprintf "N(S%d') nonempty" (k + 1)) true
              (Exact.n_set r k <> []))
          [ 1; 2; 3 ]);
    Alcotest.test_case "L3 useful deps at the site level (Sec. III.C)" `Quick
      (fun () ->
        (* After elimination the useful dependences are exactly the flow
           (w2, S1-read) with vector (1,0) and the anti (S2-read, w2)
           with vector (1,-1); in particular no useful dependence
           involves w1 = A[i,j] outside the surviving column, and the
           input dependence between the two reads is gone. *)
        let r = Exact.analyze l3 in
        let useful = Exact.useful_deps r in
        let has pred = List.exists pred useful in
        check_bool "flow w2 -> S1 read" true
          (has (fun (d : Analysis.dep) ->
               Kind.equal d.kind Kind.Flow
               && d.src.Nest.stmt_index = 1
               && d.src.Nest.access = Nest.Write
               && d.dst.Nest.stmt_index = 0
               && d.witness = [| 1; 0 |]));
        check_bool "anti S2 read -> w2" true
          (has (fun (d : Analysis.dep) ->
               Kind.equal d.kind Kind.Anti
               && d.src.Nest.stmt_index = 1
               && d.src.Nest.access = Nest.Read
               && d.dst.Nest.stmt_index = 1
               && d.witness = [| 1; -1 |]));
        check_bool "no useful input dependence" true
          (not (has (fun (d : Analysis.dep) -> Kind.equal d.kind Kind.Input)));
        check_bool "no useful output dependence" true
          (not (has (fun (d : Analysis.dep) -> Kind.equal d.kind Kind.Output))));
    Alcotest.test_case "L1 has no redundancy" `Quick (fun () ->
        let r = Exact.analyze l1 in
        check_int "none redundant" 0
          (List.length (Exact.redundant_computations r)));
    Alcotest.test_case "timelines are execution-ordered" `Quick (fun () ->
        let r = Exact.analyze l1 in
        List.iter
          (fun (_, events) ->
            let iters =
              List.map (fun (e : Exact.access_event) -> Array.to_list e.iter)
                events
            in
            check_bool "sorted" true (iters = List.sort compare iters))
          (Exact.timelines r));
    Alcotest.test_case "max_events guard" `Quick (fun () ->
        Alcotest.check_raises "too large"
          (Invalid_argument "Exact.analyze: iteration space too large")
          (fun () -> ignore (Exact.analyze ~max_events:10 l1)));
  ]

(* Cross-validation: on random small loops, every dependence the exact
   (enumeration) analysis observes must also be found by the symbolic
   classifier, with matching site pair and kind. *)
let dep_key (d : Analysis.dep) =
  ( d.array,
    (d.src.Nest.stmt_index, d.src.Nest.site_index),
    (d.dst.Nest.stmt_index, d.dst.Nest.site_index),
    d.kind )

let properties =
  [
    qtest "symbolic deps complete wrt exact" ~count:120
      (fun nest ->
        let exact = Exact.analyze nest in
        let symbolic =
          List.map dep_key (Analysis.deps ~search_radius:10 nest)
        in
        List.for_all
          (fun d -> List.mem (dep_key d) symbolic)
          (Exact.all_deps exact))
      arbitrary_nest;
    qtest "symbolic witnesses satisfy the dependence equation" ~count:120
      (fun nest ->
        List.for_all
          (fun (d : Analysis.dep) ->
            let order = Nest.indices nest in
            let h = Nest.h_matrix nest d.array in
            let _, c_src = Aref.matrix order d.src.Nest.aref in
            let _, c_dst = Aref.matrix order d.dst.Nest.aref in
            let r = Array.map2 ( - ) c_src c_dst in
            Cf_lattice.Intlin.mul_vec h d.witness = r)
          (Analysis.deps nest))
      arbitrary_nest;
    qtest "without redundancy, useful deps equal all deps" ~count:120
      (fun nest ->
        let exact = Exact.analyze nest in
        if Exact.redundant_computations exact <> [] then true
        else
          let keyset deps = List.sort_uniq compare (List.map dep_key deps) in
          keyset (Exact.useful_deps exact) = keyset (Exact.all_deps exact))
      arbitrary_nest;
    qtest "redundancy elimination preserves surviving results" ~count:80
      (fun nest ->
        let exact = Exact.analyze nest in
        let keep ~stmt_index iter =
          not (Exact.is_redundant exact ~stmt_index iter)
        in
        (* Values of elements written by surviving computations must match
           the full execution. *)
        let full = Cf_exec.Seqexec.run nest in
        let filtered = Cf_exec.Seqexec.run_filtered ~keep nest in
        List.for_all
          (fun (a, el, v) ->
            match Cf_exec.Seqexec.lookup full a el with
            | Some v' -> v = v'
            | None -> false)
          (Cf_exec.Seqexec.bindings filtered))
      arbitrary_nest;
  ]

let suites =
  [
    ("kind", kind_cases);
    ("witness", witness_cases);
    ("data-referenced-vectors", drv_cases);
    ("analysis", analysis_cases);
    ("graph", graph_cases);
    ("exact", exact_cases);
    ("dep-properties", properties);
  ]
