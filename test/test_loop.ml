open Cf_loop
open Testutil

let affine = Alcotest.testable Affine.pp Affine.equal

let affine_cases =
  [
    Alcotest.test_case "canonical form" `Quick (fun () ->
        Alcotest.check affine "i + i = 2i"
          (Affine.term 2 "i")
          (Affine.add (Affine.var "i") (Affine.var "i"));
        Alcotest.check affine "i - i = 0" Affine.zero
          (Affine.sub (Affine.var "i") (Affine.var "i"));
        check_bool "const" true (Affine.is_constant (Affine.const 3)));
    Alcotest.test_case "coeff and eval" `Quick (fun () ->
        let e =
          Affine.add
            (Affine.add (Affine.term 2 "i") (Affine.term (-1) "j"))
            (Affine.const 5)
        in
        check_int "coeff i" 2 (Affine.coeff e "i");
        check_int "coeff missing" 0 (Affine.coeff e "k");
        check_int "const" 5 (Affine.constant_part e);
        check_int "eval" 10
          (Affine.eval (function "i" -> 3 | "j" -> 1 | _ -> 0) e));
    Alcotest.test_case "coeff_vector" `Quick (fun () ->
        let e = Affine.add (Affine.term 2 "i") (Affine.const (-1)) in
        let v, c = Affine.coeff_vector [| "i"; "j" |] e in
        Alcotest.check Alcotest.(array int) "coeffs" [| 2; 0 |] v;
        check_int "const" (-1) c;
        Alcotest.check_raises "unknown var"
          (Invalid_argument "Affine.coeff_vector: unknown variable k")
          (fun () ->
            ignore (Affine.coeff_vector [| "i" |] (Affine.var "k"))));
    Alcotest.test_case "substitute" `Quick (fun () ->
        let e = Affine.add (Affine.term 2 "i") (Affine.var "j") in
        let s =
          Affine.substitute
            (function
              | "i" -> Some (Affine.add (Affine.var "j") (Affine.const 1))
              | _ -> None)
            e
        in
        Alcotest.check affine "2(j+1) + j"
          (Affine.add (Affine.term 3 "j") (Affine.const 2))
          s);
    Alcotest.test_case "printing" `Quick (fun () ->
        check_string "mix" "2*i - j + 1"
          (Affine.to_string
             (Affine.add
                (Affine.add (Affine.term 2 "i") (Affine.term (-1) "j"))
                (Affine.const 1)));
        check_string "const only" "-3" (Affine.to_string (Affine.const (-3)));
        check_string "leading neg" "-i + 2"
          (Affine.to_string (Affine.add (Affine.term (-1) "i") (Affine.const 2))));
  ]

let aref_cases =
  [
    Alcotest.test_case "matrix extraction (L1)" `Quick (fun () ->
        let r =
          Aref.make "A"
            [ Affine.term 2 "i";
              Affine.add (Affine.var "j") (Affine.const (-1)) ]
        in
        let h, c = Aref.matrix [| "i"; "j" |] r in
        Alcotest.check
          Alcotest.(array (array int))
          "H" [| [| 2; 0 |]; [| 0; 1 |] |] h;
        Alcotest.check Alcotest.(array int) "offset" [| 0; -1 |] c);
    Alcotest.test_case "eval" `Quick (fun () ->
        let r = Aref.make "A" [ Affine.term 2 "i"; Affine.var "j" ] in
        Alcotest.check
          Alcotest.(array int)
          "at (3,4)" [| 6; 4 |]
          (Aref.eval (function "i" -> 3 | _ -> 4) r));
  ]

let nest_cases =
  [
    Alcotest.test_case "validation" `Quick (fun () ->
        let stmt =
          Stmt.make (Aref.make "A" [ Affine.var "i" ]) (Expr.Const 0)
        in
        check_bool "ok" true
          (ignore (Nest.rectangular [ ("i", 1, 3) ] [ stmt ]); true);
        Alcotest.check_raises "duplicate index"
          (Invalid_argument "Nest.make: duplicate index i") (fun () ->
            ignore (Nest.rectangular [ ("i", 1, 3); ("i", 1, 3) ] [ stmt ]));
        Alcotest.check_raises "empty body"
          (Invalid_argument "Nest.make: empty body") (fun () ->
            ignore (Nest.rectangular [ ("i", 1, 3) ] [])));
    Alcotest.test_case "bound scoping" `Quick (fun () ->
        let stmt =
          Stmt.make (Aref.make "A" [ Affine.var "i" ]) (Expr.Const 0)
        in
        (* j's bound may use i, not vice versa. *)
        let ok =
          Nest.make
            [ { Nest.var = "i"; lower = Affine.const 1; upper = Affine.const 3 };
              { Nest.var = "j"; lower = Affine.var "i"; upper = Affine.const 3 } ]
            [ stmt ]
        in
        check_int "depth" 2 (Nest.depth ok);
        Alcotest.check_raises "inner in outer bound"
          (Invalid_argument "Nest.make: bound of i mentions non-outer index j")
          (fun () ->
            ignore
              (Nest.make
                 [ { Nest.var = "i"; lower = Affine.var "j";
                     upper = Affine.const 3 };
                   { Nest.var = "j"; lower = Affine.const 1;
                     upper = Affine.const 3 } ]
                 [ stmt ])));
    Alcotest.test_case "iteration enumeration" `Quick (fun () ->
        check_int "L1 card" 16 (Nest.cardinal l1);
        check_int "L4 card" 64 (Nest.cardinal l4);
        let triangle =
          Nest.make
            [ { Nest.var = "i"; lower = Affine.const 1; upper = Affine.const 3 };
              { Nest.var = "j"; lower = Affine.var "i"; upper = Affine.const 3 } ]
            [ Stmt.make (Aref.make "A" [ Affine.var "i" ]) (Expr.Const 0) ]
        in
        check_int "triangle card" 6 (Nest.cardinal triangle);
        let iters = Nest.iterations triangle in
        check_bool "lex order" true
          (iters = List.sort compare iters));
    Alcotest.test_case "uniformly generated references" `Quick (fun () ->
        check_bool "L1 all uniform" true (Nest.all_uniformly_generated l1);
        Alcotest.check
          Alcotest.(array (array int))
          "L1 H_A" [| [| 2; 0 |]; [| 0; 1 |] |] (Nest.h_matrix l1 "A");
        Alcotest.check
          Alcotest.(array (array int))
          "L1 H_B" [| [| 0; 1 |]; [| 1; 0 |] |] (Nest.h_matrix l1 "B");
        Alcotest.check
          Alcotest.(array (array int))
          "L2 H_A" [| [| 1; 1 |]; [| 1; 1 |] |] (Nest.h_matrix l2 "A");
        let bad =
          Nest.rectangular
            [ ("i", 1, 3) ]
            [ Stmt.make
                (Aref.make "A" [ Affine.term 2 "i" ])
                (Expr.Read (Aref.make "A" [ Affine.var "i" ])) ]
        in
        check_bool "non-uniform detected" false (Nest.uniformly_generated bad "A"));
    Alcotest.test_case "sites and refs" `Quick (fun () ->
        let sites = Nest.sites_of_array l1 "A" in
        check_int "A sites" 2 (List.length sites);
        check_int "A distinct refs" 2 (List.length (Nest.distinct_refs l1 "A"));
        check_int "C distinct refs" 2 (List.length (Nest.distinct_refs l1 "C"));
        Alcotest.check Alcotest.(list string) "arrays sorted"
          [ "A"; "B"; "C" ] (Nest.arrays l1));
    Alcotest.test_case "extent halfwidths" `Quick (fun () ->
        Alcotest.check Alcotest.(array int) "L1" [| 3; 3 |]
          (Nest.extent_halfwidths l1);
        Alcotest.check Alcotest.(array int) "L4" [| 3; 3; 3 |]
          (Nest.extent_halfwidths l4));
    Alcotest.test_case "cardinal agrees with enumeration" `Quick (fun () ->
        let enumerated n =
          let c = ref 0 in
          Nest.iter_space n (fun _ -> incr c);
          !c
        in
        let agree what n = check_int what (enumerated n) (Nest.cardinal n) in
        List.iter
          (fun (k : Cf_workloads.Workloads.kernel) ->
            List.iter
              (fun size ->
                agree
                  (Printf.sprintf "%s@%d" k.Cf_workloads.Workloads.name size)
                  (k.build ~size))
              [ 1; 6 ])
          Cf_workloads.Workloads.all;
        List.iter (fun (name, n) -> agree name n) all_paper_loops;
        let exe_dir = Filename.dirname Sys.executable_name in
        let corpus =
          List.find Sys.file_exists
            [ Filename.concat exe_dir "corpus";
              Filename.concat exe_dir "../../../test/corpus"; "corpus" ]
        in
        let entries = Cf_check.Corpus.load corpus in
        check_bool "corpus found" true (entries <> []);
        List.iter (fun (name, n) -> agree name n) entries;
        (* Upper bounds drawn from below the lower bound up: some levels
           are empty, at any depth. *)
        let empty = ref 0 in
        for index = 0 to 199 do
          let depth = 1 + (index mod 3) in
          let d = Cf_check.Gen.default ~depth in
          let p =
            { d with
              Cf_check.Gen.bound_hi_min = d.Cf_check.Gen.bound_lo - 2 }
          in
          let n = Cf_check.Gen.generate ~index ~seed:7 p in
          if Nest.cardinal n = 0 then incr empty;
          agree (Printf.sprintf "gen %d" index) n
        done;
        check_bool "some generated spaces are empty" true (!empty > 0);
        let triangle =
          Cf_loop.Parse.nest
            "for i = 1 to 5\n  for j = i to 5\n    A[i, j] := A[i, j] + 1;\n  end\nend\n"
        in
        check_bool "triangle is not rectangular" false (Nest.is_rectangular triangle);
        check_int "triangle" 15 (Nest.cardinal triangle);
        let huge =
          Nest.rectangular
            [ ("i", 0, max_int - 1); ("j", 0, 1); ("k", 3, 2) ]
            [ Stmt.make (Aref.make "A" [ Affine.var "i" ]) (Expr.Const 0) ]
        in
        check_int "an empty level wins over saturation" 0 (Nest.cardinal huge);
        let huge =
          Nest.rectangular
            [ ("i", 0, max_int - 1); ("j", 0, 1) ]
            [ Stmt.make (Aref.make "A" [ Affine.var "i" ]) (Expr.Const 0) ]
        in
        check_int "saturates" max_int (Nest.cardinal huge));
  ]

let parse_cases =
  [
    Alcotest.test_case "labels and structure" `Quick (fun () ->
        check_int "L1 two statements" 2 (List.length l1.Nest.body);
        (match l1.Nest.body with
         | [ s1; s2 ] ->
           check_string "label S1" "S1" s1.Stmt.label;
           check_string "label S2" "S2" s2.Stmt.label
         | _ -> Alcotest.fail "body shape"));
    Alcotest.test_case "comments and assignment forms" `Quick (fun () ->
        let t =
          Parse.nest
            "for i = 1 to 2 # a comment\n  A[i] = 3; // trailing\nend"
        in
        check_int "depth" 1 (Nest.depth t));
    Alcotest.test_case "affine bound expressions" `Quick (fun () ->
        let t = Parse.nest "for i = 1 to 4\nfor j = i to 2*i + 1\nA[i, j] := 0;\nend\nend" in
        check_bool "non-rectangular" false (Nest.is_rectangular t);
        (* j runs i..2i+1: 3 + 4 + 5 + 6 iterations. *)
        check_int "cardinal" 18 (Nest.cardinal t));
    Alcotest.test_case "errors carry line numbers" `Quick (fun () ->
        let expect_err src =
          match Parse.nest src with
          | exception Parse.Error msg ->
            check_bool "mentions line" true
              (String.length msg > 5 && String.sub msg 0 4 = "line")
          | _ -> Alcotest.fail "expected parse error"
        in
        expect_err "for i = 1 to\nA[i] := 0;\nend";
        expect_err "for i = 1 to 3\nA[i] := ;\nend";
        expect_err "for i = 1 to 3\nA[i*j] := 0;\nend";
        expect_err "for i = 1 to 3\nA[i] := 0;\nend trailing");
    Alcotest.test_case "scalars vs indices" `Quick (fun () ->
        let t = Parse.nest "for i = 1 to 2\nA[i] := D + i;\nend" in
        (match t.Nest.body with
         | [ s ] ->
           (match s.Stmt.rhs with
            | Expr.Binop (Expr.Add, Expr.Scalar "D", Expr.Index "i") -> ()
            | _ -> Alcotest.fail "expected D scalar and i index")
         | _ -> Alcotest.fail "one statement"));
    Alcotest.test_case "array declarations" `Quick (fun () ->
        let t =
          Parse.nest
            "array A[0:8, -2:4];\nfor i = 1 to 4\nA[2*i, i - 3] := 1;\nend"
        in
        (match Nest.declared_bounds t "A" with
         | Some [| (0, 8); (-2, 4) |] -> ()
         | _ -> Alcotest.fail "declaration not recorded");
        Alcotest.check Alcotest.(option (array (pair int int))) "undeclared"
          None
          (Nest.declared_bounds t "B");
        check_bool "all accesses inside" true
          (Nest.out_of_bounds_accesses t = []);
        let tight =
          Parse.nest
            "array A[0:4, 0:4];\nfor i = 1 to 4\nA[2*i, i] := 1;\nend"
        in
        check_bool "A[6,3], A[8,4] flagged" true
          (List.length (Nest.out_of_bounds_accesses tight) = 2);
        (* Declarations survive the pretty-printer round trip. *)
        let t' = Parse.nest (Format.asprintf "@[<v>%a@]" Nest.pp t) in
        check_bool "roundtrip" true
          (Nest.declared_bounds t' "A" = Nest.declared_bounds t "A");
        (* Validation. *)
        (match
           Parse.nest "array A[4:0];\nfor i = 1 to 2\nA[i] := 1;\nend"
         with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "empty range must be rejected");
        (match
           Parse.nest "array A[0:9, 0:9];\nfor i = 1 to 2\nA[i] := 1;\nend"
         with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "arity mismatch must be rejected"));
    Alcotest.test_case "declarations scope over programs" `Quick (fun () ->
        let nests =
          Parse.program
            "array A[0:9];\nfor i = 1 to 2\nA[i] := 1;\nend\n\
             for j = 1 to 3\nB[j] := A[j];\nend"
        in
        (match nests with
         | [ a; b ] ->
           check_bool "first sees A" true (Nest.declared_bounds a "A" <> None);
           check_bool "second inherits A" true
             (Nest.declared_bounds b "A" <> None);
           check_bool "B undeclared" true (Nest.declared_bounds b "B" = None)
         | _ -> Alcotest.fail "two nests"));
    Alcotest.test_case "program parsing" `Quick (fun () ->
        let nests =
          Parse.program
            "for i = 1 to 2\nA[i] := 1;\nend\nfor j = 1 to 3\nB[j] := A[j];\nend"
        in
        check_int "two nests" 2 (List.length nests);
        (match nests with
         | [ a; b ] ->
           check_int "first card" 2 (Nest.cardinal a);
           check_int "second card" 3 (Nest.cardinal b)
         | _ -> Alcotest.fail "shape");
        check_int "single nest program" 1
          (List.length (Parse.program "for i = 1 to 2\nA[i] := 1;\nend"));
        (match Parse.program "" with
         | exception Parse.Error _ -> ()
         | _ -> Alcotest.fail "empty program must fail");
        (match Parse.program "for i = 1 to 2\nA[i] := 1;\nend garbage" with
         | exception Parse.Error _ -> ()
         | _ -> Alcotest.fail "trailing garbage must fail"));
    Alcotest.test_case "pp/reparse roundtrip" `Quick (fun () ->
        List.iter
          (fun (name, t) ->
            let printed = Format.asprintf "@[<v>%a@]" Nest.pp t in
            let t' = Parse.nest printed in
            Alcotest.(check int)
              (name ^ " same cardinal")
              (Nest.cardinal t) (Nest.cardinal t');
            Alcotest.(check (list string))
              (name ^ " same arrays")
              (Nest.arrays t) (Nest.arrays t'))
          all_paper_loops);
  ]

let expr_cases =
  [
    Alcotest.test_case "eval with precedence" `Quick (fun () ->
        let e =
          Expr.Binop
            ( Expr.Add,
              Expr.Const 1,
              Expr.Binop (Expr.Mul, Expr.Const 2, Expr.Const 3) )
        in
        check_int "1+2*3" 7
          (Expr.eval
             ~read:(fun _ -> 0)
             ~scalar:(fun _ -> 0)
             ~index:(fun _ -> 0)
             e));
    Alcotest.test_case "reads in order" `Quick (fun () ->
        match l1.Nest.body with
        | [ _; s2 ] ->
          Alcotest.check Alcotest.(list string) "read arrays"
            [ "A"; "C" ]
            (List.map (fun r -> r.Aref.array) (Stmt.reads s2))
        | _ -> Alcotest.fail "body shape");
    Alcotest.test_case "printing with parens" `Quick (fun () ->
        let e =
          Expr.Binop
            ( Expr.Mul,
              Expr.Binop (Expr.Add, Expr.Index "i", Expr.Const 1),
              Expr.Const 2 )
        in
        check_string "parens" "(i + 1) * 2" (Format.asprintf "%a" Expr.pp e));
  ]

let step_cases =
  [
    Alcotest.test_case "step normalization" `Quick (fun () ->
        let t = Parse.nest "for i = 0 to 10 step 2\nA[i] := i + 1;\nend" in
        check_int "six iterations" 6 (Nest.cardinal t);
        let m = Cf_exec.Seqexec.run t in
        Alcotest.check Alcotest.(option int) "A[4] = 5" (Some 5)
          (Cf_exec.Seqexec.lookup m "A" [| 4 |]);
        Alcotest.check Alcotest.(option int) "A[10] = 11" (Some 11)
          (Cf_exec.Seqexec.lookup m "A" [| 10 |]);
        Alcotest.check Alcotest.(option int) "A[1] untouched" None
          (Cf_exec.Seqexec.lookup m "A" [| 1 |]));
    Alcotest.test_case "step 1 is the identity" `Quick (fun () ->
        let a = Parse.nest "for i = 1 to 4 step 1\nA[i] := i;\nend" in
        let b = Parse.nest "for i = 1 to 4\nA[i] := i;\nend" in
        check_int "same cardinal" (Nest.cardinal b) (Nest.cardinal a);
        check_bool "same result" true
          (Cf_exec.Seqexec.equal_on_written (Cf_exec.Seqexec.run a)
             (Cf_exec.Seqexec.run b)));
    Alcotest.test_case "step rewrites inner bounds" `Quick (fun () ->
        (* j ranges over i..4 with i stepping by 3: i in {1, 4}. *)
        let t =
          Parse.nest
            "for i = 1 to 4 step 3\nfor j = i to 4\nA[i, j] := 1;\nend\nend"
        in
        (* i=1: j=1..4 (4 iters); i=4: j=4..4 (1 iter). *)
        check_int "five iterations" 5 (Nest.cardinal t));
    Alcotest.test_case "step on empty and degenerate ranges" `Quick (fun () ->
        let t = Parse.nest "for i = 5 to 4 step 2\nA[i] := 1;\nend" in
        check_int "empty" 0 (Nest.cardinal t);
        let t = Parse.nest "for i = 3 to 3 step 7\nA[i] := 1;\nend" in
        check_int "single" 1 (Nest.cardinal t));
    Alcotest.test_case "step errors" `Quick (fun () ->
        (match Parse.nest "for i = 1 to 4 step 0\nA[i] := 1;\nend" with
         | exception Parse.Error _ -> ()
         | _ -> Alcotest.fail "step 0 must be rejected");
        (match
           Parse.nest
             "for i = 1 to 4\nfor j = i to 8 step 2\nA[i, j] := 1;\nend\nend"
         with
         | exception Parse.Error _ -> ()
         | _ -> Alcotest.fail "non-constant stepped bounds must be rejected"));
    Alcotest.test_case "step in imperfect nests" `Quick (fun () ->
        let l =
          Parse.imperfect
            "for i = 2 to 6 step 2\nS[i] := 0;\nfor j = 1 to 2\nS[i] := S[i] + A[i, j];\nend\nend"
        in
        check_bool "distribution still legal" true
          (Cf_frontend.Distribution.preserves l));
  ]

let step_properties =
  [
    qtest "step normalization hits exactly the strided points" ~count:200
      (fun (lo, extent, s) ->
        let hi = lo + extent in
        let src =
          Printf.sprintf "for i = %d to %d step %d\nA[i] := i;\nend" lo hi s
        in
        let t = Parse.nest src in
        let written =
          Cf_exec.Seqexec.bindings (Cf_exec.Seqexec.run t)
          |> List.map (fun (_, el, v) -> (el.(0), v))
          |> List.sort compare
        in
        let expected =
          let rec go x acc = if x > hi then List.rev acc else go (x + s) ((x, x) :: acc) in
          go lo []
        in
        written = expected)
      QCheck.(triple (int_range (-5) 5) (int_range 0 12) (int_range 1 5));
  ]

let suites =
  [
    ("affine", affine_cases);
    ("aref", aref_cases);
    ("expr", expr_cases);
    ("nest", nest_cases);
    ("parse", parse_cases);
    ("step", step_cases);
    ("step-properties", step_properties);
  ]
