(* The closure-specialization backend (Cf_exec.Compile) against the AST
   interpreter it replaces: bit-for-bit parity on values, faults and
   machine accounting, plus the specialization corners — every operator,
   truncating division, negative strides, rank-deficient subscript
   matrices, depth-3 nests. *)

open Cf_core
open Cf_exec
open Testutil

let parse = Cf_loop.Parse.nest

let seq_parity ?init ?scalar name nest =
  let c = Seqexec.run ~backend:`Compiled ?init ?scalar nest in
  let i = Seqexec.run ~backend:`Interpreted ?init ?scalar nest in
  check_bool (name ^ ": compiled = interpreted") true
    (Seqexec.equal_on_written c i);
  c

let unit_cases =
  [
    Alcotest.test_case "backend names round-trip" `Quick (fun () ->
        check_bool "compiled" true
          (Compile.backend_of_string "compiled" = Some `Compiled);
        check_bool "interpreted" true
          (Compile.backend_of_string "interpreted" = Some `Interpreted);
        check_bool "unknown" true (Compile.backend_of_string "fast" = None);
        check_string "name" "compiled" (Compile.backend_name `Compiled);
        check_string "name" "interpreted" (Compile.backend_name `Interpreted));
    Alcotest.test_case "program resolves slots and ranks" `Quick (fun () ->
        let prog = Compile.make l4 in
        Alcotest.check
          Alcotest.(array string)
          "arrays sorted" [| "A"; "B" |] (Compile.arrays prog);
        check_int "slot A" 0 (Compile.slot_of prog "A");
        check_int "slot B" 1 (Compile.slot_of prog "B");
        check_int "max rank" 3 (Compile.max_rank prog);
        check_int "one statement" 1 (Array.length (Compile.stmts prog));
        Alcotest.check_raises "unknown array"
          (Invalid_argument "Compile: unknown array Z") (fun () ->
            ignore (Compile.slot_of prog "Z")));
    Alcotest.test_case "all four operators match the interpreter" `Quick
      (fun () ->
        let t =
          parse "for i = 1 to 6\nA[i] := B[i] * 3 + C[i] - B[i] / 2;\nend"
        in
        let m = seq_parity "ops" t in
        (* Spot-check one element against a direct evaluation. *)
        let b = Seqexec.default_init "B" [| 2 |] in
        let c = Seqexec.default_init "C" [| 2 |] in
        Alcotest.(check (option int))
          "A[2]"
          (Some ((b * 3) + c - (b / 2)))
          (Seqexec.lookup m "A" [| 2 |]));
    Alcotest.test_case "Div truncates toward zero on negatives" `Quick
      (fun () ->
        let t = parse "for i = 1 to 3\nA[i] := B[i] / 2;\nend" in
        let init a _ = if a = "B" then -7 else 0 in
        let m = seq_parity ~init "neg div" t in
        (* OCaml (/) truncates toward zero: -7/2 = -3, not -4. *)
        Alcotest.(check (option int))
          "A[1]" (Some (-3))
          (Seqexec.lookup m "A" [| 1 |]));
    Alcotest.test_case "Division_by_zero parity" `Quick (fun () ->
        let t = parse "for i = 1 to 3\nA[i] := B[i] / D;\nend" in
        let scalar _ = 0 in
        Alcotest.check_raises "compiled" Division_by_zero (fun () ->
            ignore (Seqexec.run ~backend:`Compiled ~scalar t));
        Alcotest.check_raises "interpreted" Division_by_zero (fun () ->
            ignore (Seqexec.run ~backend:`Interpreted ~scalar t)));
    Alcotest.test_case "negative strides and offsets" `Quick (fun () ->
        let t = parse "for i = 1 to 4\nA[5 - i] := A[7 - i] + B[9 - 2*i];\nend"
        in
        let m = seq_parity "neg stride" t in
        check_int "four writes" 4 (List.length (Seqexec.bindings m)));
    Alcotest.test_case "rank-deficient subscript matrices (L2)" `Quick
      (fun () -> ignore (seq_parity "L2" l2));
    Alcotest.test_case "depth-3 nest (L4) and matmul" `Quick (fun () ->
        ignore (seq_parity "L4" l4);
        ignore (seq_parity "matmul" (Matmul.nest ~m:4)));
    Alcotest.test_case "every paper loop agrees across backends" `Quick
      (fun () ->
        List.iter
          (fun (name, nest) -> ignore (seq_parity name nest))
          all_paper_loops);
    Alcotest.test_case "keep filter parity (run_filtered)" `Quick (fun () ->
        let keep ~stmt_index iter = (stmt_index + iter.(0)) mod 2 = 0 in
        let c = Seqexec.run_filtered ~backend:`Compiled ~keep l1 in
        let i = Seqexec.run_filtered ~backend:`Interpreted ~keep l1 in
        check_bool "filtered parity" true (Seqexec.equal_on_written c i);
        check_bool "filter dropped writes" true
          (List.length (Seqexec.bindings c)
          < List.length (Seqexec.bindings (Seqexec.run l1))));
  ]

(* Machine-engine parity: both backends of the engine, and of the
   materialized reference executor, must produce identical reports and
   identical simulated accounting. *)

let mk nprocs =
  Cf_machine.Machine.create
    (Cf_machine.Topology.linear nprocs)
    Cf_machine.Cost.transputer

let report_parity ~name ~nprocs ~strategy nest =
  let psi = Strategy.partitioning_space strategy nest in
  let placement = Parexec.cyclic ~nprocs in
  let coset = Coset.make nest psi in
  let partition = Iter_partition.make nest psi in
  let run_indexed backend =
    let machine = mk nprocs in
    let r =
      Parexec.execute_indexed ~backend ~domains:1 ~machine ~placement
        ~strategy coset
    in
    (r, Cf_machine.Machine.max_compute_time machine)
  in
  let run_materialized backend =
    let machine = mk nprocs in
    let r =
      Cf_check.Refexec.execute ~backend ~machine ~placement ~strategy partition
    in
    (r, Cf_machine.Machine.max_compute_time machine)
  in
  List.iter
    (fun (engine, run) ->
      let rc, tc = run `Compiled in
      let ri, ti = run `Interpreted in
      let ctx s = Printf.sprintf "%s/%s %s" name engine s in
      check_bool (ctx "remote") true
        (rc.Parexec.remote_access = ri.Parexec.remote_access);
      check_bool (ctx "mismatches") true
        (rc.Parexec.mismatches = ri.Parexec.mismatches);
      Alcotest.(check (array int))
        (ctx "per-PE iterations") ri.Parexec.per_pe_iterations
        rc.Parexec.per_pe_iterations;
      Alcotest.(check (float 0.)) (ctx "compute time") ti tc;
      check_bool (ctx "ok") true (Parexec.ok rc))
    [ ("indexed", run_indexed); ("materialized", run_materialized) ]

let engine_cases =
  [
    Alcotest.test_case "L1 nonduplicate report parity" `Quick (fun () ->
        report_parity ~name:"L1" ~nprocs:3 ~strategy:Strategy.Nonduplicate l1);
    Alcotest.test_case "L3 minimal duplicate report parity" `Quick (fun () ->
        report_parity ~name:"L3" ~nprocs:4 ~strategy:Strategy.Min_duplicate l3);
    Alcotest.test_case "L4 depth-3 report parity" `Quick (fun () ->
        report_parity ~name:"L4" ~nprocs:4 ~strategy:Strategy.Nonduplicate l4);
    Alcotest.test_case "matmul duplicate report parity" `Quick (fun () ->
        report_parity ~name:"matmul" ~nprocs:4 ~strategy:Strategy.Duplicate
          (Matmul.nest ~m:4));
    Alcotest.test_case "non-free partition: identical divergence" `Quick
      (fun () ->
        (* Slice L1 against its flow dependence: allocation copies stale
           data locally, so the run fails validation — both backends
           must report the identical divergence. *)
        let psi =
          Cf_linalg.Subspace.span 2 [ Cf_linalg.Vec.of_int_list [ 1; 0 ] ]
        in
        let coset = Coset.make l1 psi in
        let placement = Parexec.cyclic ~nprocs:4 in
        let run backend =
          Parexec.execute_indexed ~backend ~domains:1 ~machine:(mk 4)
            ~placement ~strategy:Strategy.Nonduplicate coset
        in
        let rc = run `Compiled and ri = run `Interpreted in
        check_bool "run is not ok" false (Parexec.ok rc);
        check_bool "same remote access" true
          (rc.Parexec.remote_access = ri.Parexec.remote_access);
        check_bool "same mismatches" true
          (rc.Parexec.mismatches = ri.Parexec.mismatches));
  ]

(* Both backends of one run: the same report and the same extra reading
   (compute time, serviced traffic). *)
let same_run run =
  let rc, xc = run `Compiled and ri, xi = run `Interpreted in
  rc.Parexec.remote_access = ri.Parexec.remote_access
  && rc.Parexec.mismatches = ri.Parexec.mismatches
  && rc.Parexec.per_pe_iterations = ri.Parexec.per_pe_iterations
  && xc = xi

let indexed_parity nest strategy =
  let coset = Coset.make nest (Strategy.partitioning_space strategy nest) in
  same_run (fun backend ->
      let machine = mk 3 in
      let r =
        Parexec.execute_indexed ~backend ~domains:1 ~machine
          ~placement:(Parexec.cyclic ~nprocs:3) ~strategy coset
      in
      (r, Cf_machine.Machine.max_compute_time machine))

(* {2 Every accessor kind against the interpreter}

   A generator local to this suite ([Cf_check.Gen]'s default streams
   also feed the benchmark inputs, so they stay as they are; they draw
   only rank-2 arrays and two-read right-hand sides).  It draws
   uniformly generated nests of depth 1–3 whose arrays each have rank
   1, 2 or 3 under unit-stride ([iter(q) + c]) or general affine
   subscripts, with right-hand sides of up to three reads — so every
   load and store the compiled backend builds is reached: inline rank-1
   and rank-2 flat paths, offsets from the element at any rank, the
   general accessor, and the L5 run kernel, whose shape a third of the
   cases take (rank-2 unit-stride [L := r op1 (s op2 t)]). *)

let access_nest =
  let open QCheck.Gen in
  let module E = Cf_loop.Expr in
  let names = [ "A"; "B"; "C" ] in
  int_range 1 3 >>= fun depth ->
  let vars = Array.sub [| "i"; "j"; "k" |] 0 depth in
  let row unit =
    if unit then
      int_range 0 (depth - 1) >|= fun q ->
      Array.init depth (fun j -> if j = q then 1 else 0)
    else array_repeat depth (int_range (-2) 2)
  in
  let rec matrix ~rank ~unit =
    array_repeat rank (row unit) >>= fun h ->
    if Array.exists (Array.exists (( <> ) 0)) h then return h
    else matrix ~rank ~unit
  in
  bool >>= fun l5 ->
  let l5 = l5 && depth >= 2 in
  flatten_l
    (List.map
       (fun name ->
         (if l5 then return (2, true)
          else pair (int_range 1 3) (int_range 0 9 >|= fun u -> u < 6))
         >>= fun (rank, unit) ->
         matrix ~rank ~unit >|= fun h -> (name, h))
       names)
  >>= fun arrays ->
  let aref =
    oneofl arrays >>= fun (name, h) ->
    array_repeat (Array.length h) (int_range (-2) 2) >|= fun c ->
    Cf_loop.Aref.make name
      (List.init (Array.length h) (fun p ->
           Cf_loop.Affine.of_coeff_vector vars h.(p) c.(p)))
  in
  let read = aref >|= fun r -> E.Read r in
  let op = oneofl [ E.Add; E.Sub; E.Mul ] in
  let rhs =
    if l5 then
      map3 (fun (o1, o2) r (s, t) -> E.Binop (o1, r, E.Binop (o2, s, t)))
        (pair op op) read (pair read read)
    else
      oneof
        [
          read;
          map2 (fun r k -> E.Binop (E.Div, r, E.Const k)) read (int_range 1 3);
          map3 (fun o r s -> E.Binop (o, r, s)) op read read;
          map3 (fun (o1, o2) r (s, t) -> E.Binop (o1, r, E.Binop (o2, s, t)))
            (pair op op) read (pair read read);
          map3 (fun (o1, o2) (r, s) t -> E.Binop (o1, E.Binop (o2, r, s), t))
            (pair op op) (pair read read) read;
        ]
  in
  let stmt = map2 Cf_loop.Stmt.make aref rhs in
  (if l5 then return 1 else int_range 1 2) >>= fun n ->
  list_repeat n stmt >>= fun body ->
  let hi = match depth with 1 -> 6 | 2 -> 4 | _ -> 3 in
  flatten_l
    (Array.to_list (Array.map (fun v -> int_range 2 hi >|= fun h -> (v, 1, h)) vars))
  >|= fun levels -> Cf_loop.Nest.rectangular levels body

let arbitrary_access_nest =
  QCheck.make ~print:(Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp) access_nest

let accessor_parity nest =
  let module M = Cf_machine.Machine in
  let seq =
    Seqexec.equal_on_written
      (Seqexec.run ~backend:`Compiled nest)
      (Seqexec.run ~backend:`Interpreted nest)
  in
  let fallback comm_mode =
    let partition = Commcost.outer_slab_partition nest in
    same_run (fun backend ->
        let machine =
          M.create ~comm_mode (Cf_machine.Topology.linear 3)
            Cf_machine.Cost.transputer
        in
        let r =
          Parexec.execute_fallback ~backend ~machine
            ~placement:(Parexec.cyclic ~nprocs:3) partition
        in
        ( r,
          ( M.serviced_reads machine,
            M.serviced_writes machine,
            M.serviced_messages machine ) ))
  in
  seq
  && indexed_parity nest Strategy.Duplicate
  && indexed_parity nest Strategy.Nonduplicate
  && fallback `Strict && fallback `Service

let properties =
  [
    qtest "compiled = interpreted on 200 seeded 2-deep nests" ~count:200
      (fun nest ->
        Seqexec.equal_on_written
          (Seqexec.run ~backend:`Compiled nest)
          (Seqexec.run ~backend:`Interpreted nest))
      arbitrary_nest;
    qtest "compiled = interpreted on seeded 3-deep nests" ~count:60
      (fun nest ->
        Seqexec.equal_on_written
          (Seqexec.run ~backend:`Compiled nest)
          (Seqexec.run ~backend:`Interpreted nest))
      Cf_check.Gen.arbitrary_nest3;
    qtest "machine engine backend parity on random nests" ~count:25
      (fun nest ->
        List.for_all (indexed_parity nest)
          [ Strategy.Nonduplicate; Strategy.Duplicate ])
      arbitrary_nest;
    qtest "every accessor kind: compiled = interpreted (seq, engine, fallback)"
      ~count:150 accessor_parity arbitrary_access_nest;
  ]

let suites =
  [
    ("compile", unit_cases);
    ("compile-engines", engine_cases);
    ("compile-properties", properties);
  ]
