(* End-to-end tests of the cfalloc binary: each subcommand runs against
   the example loop files and its output is spot-checked.  Tests run
   from _build/default/test/, so the binary and the loop files are
   reached relative to the workspace root. *)

open Testutil

(* The test executable lives in <root>/_build/default/test/, so the CLI
   binary is a sibling directory and the source tree is three levels up. *)
let exe_dir = Filename.dirname Sys.executable_name
let binary = Filename.concat exe_dir "../bin/cfalloc.exe"

let root =
  Filename.concat (Filename.concat (Filename.concat exe_dir "..") "..") ".."

let loop f = Filename.concat root ("examples/loops/" ^ f)
let corpus f = Filename.concat root ("test/corpus/" ^ f)

let available =
  lazy (Sys.file_exists binary && Sys.file_exists (loop "l1.loop"))

let run_cli args =
  if not (Lazy.force available) then None
  else begin
    let out = Filename.temp_file "cfalloc" ".out" in
    let cmd =
      Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary)
        (String.concat " " (List.map Filename.quote args))
        out
    in
    let status = Sys.command cmd in
    let ic = open_in out in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    (try Sys.remove out with Sys_error _ -> ());
    Some (status, contents)
  end

(* The end of [needle]'s first occurrence in [hay] at or after [from]. *)
let find_from hay from needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some (i + nl)
    else go (i + 1)
  in
  go from

let contains hay needle = Option.is_some (find_from hay 0 needle)

let expect_ok ?(expected_status = 0) name args needles =
  Alcotest.test_case name `Slow (fun () ->
      match run_cli args with
      | None -> () (* binary not built in this context *)
      | Some (status, out) ->
        check_int (name ^ " exit code") expected_status status;
        List.iter
          (fun needle ->
            check_bool
              (Printf.sprintf "%s mentions %S" name needle)
              true (contains out needle))
          needles)

(* [needles] appear in [out] in this order, each after the previous
   one's end; [count] pins how often [tag] occurs. *)
let expect_in_order name args ~tag ~count needles =
  Alcotest.test_case name `Slow (fun () ->
      match run_cli args with
      | None -> ()
      | Some (status, out) ->
        check_int (name ^ " exit code") 0 status;
        let rec occurrences from n =
          match find_from out from tag with
          | None -> n
          | Some next -> occurrences next (n + 1)
        in
        check_int (Printf.sprintf "%s: %S lines" name tag) count
          (occurrences 0 0);
        ignore
          (List.fold_left
             (fun from needle ->
               match find_from out from needle with
               | Some next -> next
               | None ->
                 Alcotest.failf "%s: %S missing or out of order" name needle)
             0 needles))

(* Rewrites the first leaf of [doc] that [pick key leaf] accepts, where
   [key] is the field holding the leaf.  Returns that leaf's bench-diff
   path (list rows keyed by their [row_key] values) and a temp file with
   the rewritten report. *)
let bench_mutant ~row_key pick doc =
  let module J = Cf_obs.Json in
  let hit = ref None in
  let bare = function J.Str s -> s | v -> J.to_string v in
  let row_id i item =
    match
      List.filter_map
        (fun f -> Option.map (fun v -> (f, v)) (J.member f item))
        row_key
    with
    | [] -> string_of_int i
    | (_, v) :: rest ->
      String.concat ","
        (bare v :: List.map (fun (f, v) -> f ^ "=" ^ bare v) rest)
  in
  let rec go path key = function
    | J.Obj fields ->
      J.Obj (List.map (fun (k, v) -> (k, go (path ^ "." ^ k) k v)) fields)
    | J.List items ->
      J.List
        (List.mapi
           (fun i item -> go (path ^ "[" ^ row_id i item ^ "]") key item)
           items)
    | leaf -> (
      match (!hit, pick key leaf) with
      | None, Some leaf' ->
        hit := Some path;
        leaf'
      | _ -> leaf)
  in
  let doc = go "" "" doc in
  Option.map
    (fun path ->
      let f = Filename.temp_file "bench_mutant" ".json" in
      Out_channel.with_open_text f (fun oc ->
          output_string oc (J.to_string doc));
      (path, f))
    !hit

(* Every committed quick baseline gates itself: a self-diff is clean,
   bumping its first gated number or flipping any gated boolean fails
   with the leaf's path, and doubling a wall-clock key only warns. *)
let bench_baselines_gated () =
  let module J = Cf_obs.Json in
  if Lazy.force available then begin
    let dir = Filename.concat root "bench/baselines" in
    let files =
      List.sort compare
        (List.filter
           (fun f -> Filename.check_suffix f ".json")
           (Array.to_list (Sys.readdir dir)))
    in
    check_bool "baselines found" true (files <> []);
    let flipped = ref [] and doubled = ref [] in
    List.iter
      (fun file ->
        let baseline = Filename.concat dir file in
        let base =
          match
            J.parse (In_channel.with_open_text baseline In_channel.input_all)
          with
          | Ok j -> j
          | Error e -> Alcotest.fail e
        in
        let names key =
          match J.member key base with
          | Some (J.List l) -> List.filter_map J.str l
          | _ -> []
        in
        let gated = names "gated" and row_key = names "row_key" in
        check_bool (file ^ " names its gated keys") true (gated <> []);
        let diff current =
          match run_cli [ "bench-diff"; baseline; current ] with
          | Some r -> r
          | None -> Alcotest.fail "cfalloc not built"
        in
        let expect ~status ~line = function
          | None -> false
          | Some (path, f) ->
            let st, out = diff f in
            Sys.remove f;
            check_int (file ^ " exit for " ^ path) status st;
            check_bool (file ^ " prints " ^ line ^ path) true
              (contains out (line ^ path ^ ":"));
            true
        in
        let st, out = diff baseline in
        check_int (file ^ " self-diff exit") 0 st;
        check_bool (file ^ " self-diff is clean") false
          (contains out "FAIL" || contains out "WARN");
        check_bool (file ^ " bumps a gated number") true
          (expect ~status:1 ~line:"FAIL "
             (bench_mutant ~row_key
                (fun k v ->
                  match v with
                  | J.Num x when List.mem k gated -> Some (J.Num (x +. 1.))
                  | _ -> None)
                base));
        List.iter
          (fun key ->
            if
              expect ~status:1 ~line:"FAIL "
                (bench_mutant ~row_key
                   (fun k v ->
                     match v with
                     | J.Bool b when k = key -> Some (J.Bool (not b))
                     | _ -> None)
                   base)
            then flipped := (file, key) :: !flipped)
          gated;
        if
          expect ~status:0 ~line:"WARN "
            (bench_mutant ~row_key
               (fun k v ->
                 match v with
                 | J.Num x
                   when x > 0. && String.ends_with ~suffix:"_s" k
                        && not (List.mem k gated) ->
                   Some (J.Num (2. *. x))
                 | _ -> None)
               base)
        then doubled := file :: !doubled)
      files;
    List.iter
      (fun (file, key) ->
        check_bool
          (Printf.sprintf "%s flips gated %s" file key)
          true
          (List.mem (file, key) !flipped))
      [ ("BENCH_check.json", "pass"); ("BENCH_mincomm.json", "pass");
        ("BENCH_normalize.json", "pass"); ("BENCH_faults.json", "identical");
        ("BENCH_parexec.json", "cross_check_ok");
        ("BENCH_parexec.json", "reports_identical");
        ("BENCH_service.json", "identity_vs_sequential") ];
    (* Every report but fault-recovery, whose times are all simulated,
       carries a wall-clock key. *)
    check_int "reports with a wall-clock key"
      (List.length files - 1)
      (List.length !doubled)
  end

let cases =
  [
    expect_ok "analyze L1"
      [ "analyze"; loop "l1.loop" ]
      [ "Psi_A = span{(1, 1)}"; "communication-free verified: true" ];
    expect_ok "analyze reports diagnostics"
      [ "analyze"; loop "l2.loop" ]
      [ "info [singular-reference-matrix]" ];
    expect_ok "transform L4 with the paper's basis"
      [ "transform"; loop "l4.loop"; "--basis"; "1,1,0;-1,0,1"; "-p"; "4" ]
      [ "forall i1' = 2 to 8"; "step 2" ];
    expect_ok "simulate L2 duplicated"
      [ "simulate"; loop "l2.loop"; "-s"; "duplicate"; "-p"; "4" ]
      [ "communication-free: yes"; "results: match sequential" ];
    expect_ok "figures L3 minimal duplicate"
      [ "figures"; loop "l3.loop"; "-s"; "min-duplicate" ]
      [ "data reference graph G^A"; "iteration partition" ];
    expect_ok "compare convolution"
      [ "compare"; loop "convolution.loop" ]
      [ "R&S hyperplane" ];
    expect_ok "advise L5"
      [ "advise"; loop "l5.loop"; "-p"; "16" ]
      [ "duplication candidates"; "duplicate {" ];
    expect_ok "cgen L1"
      [ "cgen"; loop "l1.loop" ]
      [ "int main(void)"; "#define AT_A" ];
    expect_ok "multi-nest program"
      [ "compare"; loop "program.loop" ]
      [ "===== nest 1 ====="; "===== nest 2 =====" ];
    expect_ok "allocate L1"
      [ "allocate"; loop "l1.loop"; "-p"; "3" ]
      [ "PE2:"; "(0 replicated)" ];
    expect_ok "distribute the reduction idiom"
      [ "distribute"; loop "reduction.loop"; "-s"; "duplicate" ]
      [ "distributed into 2 perfect nest(s)"; "===== nest 2 =====" ];
    expect_ok "cgen with OpenMP"
      [ "cgen"; loop "l4.loop"; "--openmp" ]
      [ "#pragma omp parallel for" ];
    expect_ok "declared bounds reach the figures"
      [ "figures"; loop "l1.loop" ]
      [ " 8 | .. ## ## ## ##" ];
    Alcotest.test_case "bad input fails cleanly" `Slow (fun () ->
        match
          run_cli [ "analyze"; Filename.concat root "dune-project" ]
        with
        | None -> ()
        | Some (status, out) ->
          check_int "nonzero exit" 1 status;
          check_bool "parse error message" true (contains out "parse error"));
    Alcotest.test_case "parse errors carry line and column" `Slow (fun () ->
        match run_cli [ "analyze"; loop "reduction.loop" ] with
        | None -> ()
        | Some (status, out) ->
          check_int "nonzero exit" 1 status;
          check_bool "line/column diagnostic" true
            (contains out "parse error: line 5, column 3"));
    Alcotest.test_case "basis rejects ragged rows" `Slow (fun () ->
        match
          run_cli [ "transform"; loop "l1.loop"; "--basis"; "1,1;2" ]
        with
        | None -> ()
        | Some (status, out) ->
          check_bool "nonzero exit" true (status <> 0);
          check_bool "mentions ragged" true (contains out "ragged"));
    Alcotest.test_case "basis rejects empty input" `Slow (fun () ->
        match
          run_cli [ "transform"; loop "l1.loop"; "--basis"; "" ]
        with
        | None -> ()
        | Some (status, out) ->
          check_bool "nonzero exit" true (status <> 0);
          check_bool "clear message" true (contains out "bad basis"));
    expect_ok "batch over the example directory"
      ~expected_status:1 (* reduction.loop is imperfect: reported, skipped *)
      [ "batch";
        Filename.concat root "examples/loops";
        "--domains"; "2" ]
      [ "reduction.loop: parse error: line 5, column 3";
        "== strategy nonduplicate ==";
        "== strategy min-duplicate ==";
        "l1.loop";
        "parallel=1";
        "verified=true";
        "requests: 44 submitted, 44 completed";
        "cache: hits" ];
    expect_ok "batch without cache"
      ~expected_status:1
      [ "batch";
        Filename.concat root "examples/loops";
        "--no-cache"; "--domains"; "1"; "--queue"; "4" ]
      [ "cache: off" ];
    expect_ok "simulate recovers from a killed PE"
      [ "simulate"; loop "l5.loop"; "-p"; "4";
        "--kill-pe"; "0"; "--kill-after"; "3" ]
      [ "recovered: PE {0} crashed";
        "recovered output identical: true" ];
    expect_ok "simulate with a seeded fault plan is reproducible"
      [ "simulate"; loop "l5.loop"; "-p"; "4"; "--fault-seed"; "7" ]
      [ "recovered output identical: true" ];
    expect_ok "malformed fault seed exits 2"
      ~expected_status:2
      [ "simulate"; loop "l1.loop"; "--fault-seed"; "banana" ]
      [ "error: --fault-seed expects an integer" ];
    expect_ok "kill-pe outside the machine exits 2"
      ~expected_status:2
      [ "simulate"; loop "l1.loop"; "-p"; "4"; "--kill-pe"; "9" ]
      [ "outside the machine" ];
    expect_ok "kill-after without kill-pe exits 2"
      ~expected_status:2
      [ "simulate"; loop "l1.loop"; "--kill-after"; "3" ]
      [ "--kill-after requires --kill-pe" ];
    expect_ok "checkpoint-every without a fault flag exits 2"
      ~expected_status:2
      [ "simulate"; loop "l1.loop"; "--checkpoint-every"; "1" ]
      [ "--checkpoint-every requires --kill-pe or --fault-seed" ];
    Alcotest.test_case "trace + trace-check round-trip" `Slow (fun () ->
        let tf = Filename.temp_file "cfalloc_trace" ".json" in
        (match
           run_cli
             [ "trace"; loop "matmul4.loop"; "-s"; "duplicate"; "-p"; "4";
               "--fault-seed"; "3"; "--trace-out"; tf ]
         with
        | None -> ()
        | Some (status, out) ->
          check_int "trace exit" 0 status;
          check_bool "event count reported" true (contains out "event(s)");
          (match run_cli [ "trace-check"; tf ] with
          | None -> ()
          | Some (status2, out2) ->
            check_int "check exit" 0 status2;
            check_bool "checker verdict" true
              (contains out2 "valid Chrome trace")));
        (try Sys.remove tf with Sys_error _ -> ()));
    Alcotest.test_case "trace emits jsonl when asked" `Slow (fun () ->
        let tf = Filename.temp_file "cfalloc_trace" ".jsonl" in
        (match
           run_cli
             [ "trace"; loop "matmul4.loop"; "--trace-format"; "jsonl";
               "--trace-out"; tf ]
         with
        | None -> ()
        | Some (status, out) ->
          check_int "exit" 0 status;
          check_bool "format reported" true (contains out "jsonl format");
          let ic = open_in tf in
          let line = input_line ic in
          close_in ic;
          check_bool "line is a json object" true
            (String.length line > 0 && line.[0] = '{'));
        (try Sys.remove tf with Sys_error _ -> ()));
    Alcotest.test_case "bench-diff warns without failing" `Slow (fun () ->
        let write_json name contents =
          let f = Filename.temp_file name ".json" in
          let oc = open_out f in
          output_string oc contents;
          close_out oc;
          f
        in
        let baseline =
          write_json "bench_base"
            {|{"rows": [{"workload": "matmul", "t_s": 1.0, "blocks": 4}]}|}
        in
        let current =
          write_json "bench_cur"
            {|{"rows": [{"workload": "matmul", "t_s": 2.0, "blocks": 4}]}|}
        in
        (match run_cli [ "bench-diff"; baseline; current ] with
        | None -> ()
        | Some (status, out) ->
          check_int "advisory exit 0" 0 status;
          check_bool "warns on the regressed metric" true
            (contains out "WARN");
          check_bool "mentions the path" true (contains out "t_s");
          check_bool "advisory summary" true (contains out "advisory only"));
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ baseline; current ]);
    Alcotest.test_case "bench-diff fails on simulated drift" `Slow (fun () ->
        let write_json name contents =
          let f = Filename.temp_file name ".json" in
          let oc = open_out f in
          output_string oc contents;
          close_out oc;
          f
        in
        let report ~t ~makespan ~domains =
          Printf.sprintf
            {|{"bench": "parexec-scale", "gated": ["blocks", "makespan_s"], "row_key": ["workload", "size"], "rows": [{"workload": "matmul", "size": 8, "t_s": %g, "domains": %d, "blocks": 4, "makespan_s": %g}]}|}
            t domains makespan
        in
        let baseline =
          write_json "bench_base" (report ~t:1. ~makespan:0.5 ~domains:1)
        in
        let wall =
          write_json "bench_wall" (report ~t:2. ~makespan:0.5 ~domains:2)
        in
        let drift =
          write_json "bench_drift" (report ~t:1. ~makespan:0.51 ~domains:1)
        in
        (match run_cli [ "bench-diff"; baseline; wall ] with
        | None -> ()
        | Some (status, out) ->
          check_int "wall-clock and domains drift only warn" 0 status;
          check_bool "warns" true (contains out "WARN");
          check_bool "no failure" false (contains out "FAIL"));
        (match run_cli [ "bench-diff"; baseline; drift ] with
        | None -> ()
        | Some (status, out) ->
          check_int "simulated drift exits 1" 1 status;
          check_bool "names the metric" true
            (contains out "FAIL .rows[matmul,size=8].makespan_s"));
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ baseline; wall; drift ]);
    Alcotest.test_case "bench-diff gates every committed baseline" `Slow
      bench_baselines_gated;
    expect_ok "fuzz --help documents the subcommand"
      [ "fuzz"; "--help=plain" ]
      [ "--seed"; "--count"; "--oracle"; "--corpus-dir";
        "counterexample" ];
    expect_ok "fuzz runs clean on a fixed seed"
      [ "fuzz"; "--seed"; "7"; "--count"; "6";
        "--corpus-dir"; Filename.get_temp_dir_name () ]
      [ "fuzz: seed 7, 6 case(s) x 10 oracle(s)";
        "0 counterexample(s)" ];
    expect_ok "fuzz respects --oracle and --depth"
      [ "fuzz"; "--seed"; "5"; "--count"; "4"; "--depth"; "2";
        "--oracle"; "coset-parity,parexec-vs-seq";
        "--corpus-dir"; Filename.get_temp_dir_name () ]
      [ "4 case(s) x 2 oracle(s)"; "0 counterexample(s)" ];
    expect_ok "fuzz --json emits the machine-readable report"
      [ "fuzz"; "--seed"; "3"; "--count"; "3"; "--json";
        "--oracle"; "coset-parity";
        "--corpus-dir"; Filename.get_temp_dir_name () ]
      [ {|"tool":"cfalloc fuzz"|}; {|"seed":3|}; {|"failures":[]|} ];
    expect_ok "fuzz rejects unknown oracles"
      ~expected_status:2
      [ "fuzz"; "--oracle"; "no-such-oracle"; "--count"; "1" ]
      [ "unknown oracle(s) no-such-oracle"; "coset-parity" ];
    expect_ok "simulate serves a theorem-rejected nest"
      [ "simulate"; corpus "mincomm-carried-1d.loop"; "-p"; "2" ]
      [ "theorems reject the nest; serving fallback free (predicted 3 \
         message(s))";
        "communication: 3 serviced message(s) (3 read, 0 write)";
        "serviced: 3 message(s) (3 read(s), 0 write(s))";
        "results: match sequential" ];
    (* L3 is rejected by Theorems 1-3 and has parallelism 1 under
       Theorem 4: three rejection diagnostics, then four verdict
       lines. *)
    expect_in_order "analyze prints L3's theorem verdicts in order"
      [ "analyze"; loop "l3.loop" ]
      ~tag:"[theorem-rejected]" ~count:3
      [ "info [theorem-rejected]: Theorem 1 (nonduplicate) rejects the nest";
        "info [theorem-rejected]: Theorem 2 (duplicate) rejects the nest";
        "info [theorem-rejected]: Theorem 3 (min-nonduplicate) rejects the \
         nest";
        "info [fallback-chosen]: fallback partition axis[1]";
        "Theorem 1 (nonduplicate): rejected (dim Psi = n, no parallelism)";
        "Theorem 2 (duplicate): rejected (dim Psi = n, no parallelism)";
        "Theorem 3 (min-nonduplicate): rejected (dim Psi = n, no \
         parallelism)";
        "Theorem 4 (min-duplicate): parallelism 1";
        "plan: fallback axis[1] = span{(0, 1)}" ];
    (* The recurrence is rejected by all four theorems; its verdicts are
       those of the shifted (normalized) nest the plan was made for. *)
    expect_in_order "normalize --plan prints all four verdict lines"
      [ "normalize"; loop "recurrence.loop"; "--plan" ]
      ~tag:"): rejected (dim Psi = n, no parallelism)" ~count:4
      [ "normalized loop:";
        "Theorem 1 (nonduplicate): rejected (dim Psi = n, no parallelism)";
        "Theorem 2 (duplicate): rejected (dim Psi = n, no parallelism)";
        "Theorem 3 (min-nonduplicate): rejected (dim Psi = n, no \
         parallelism)";
        "Theorem 4 (min-duplicate): rejected (dim Psi = n, no parallelism)";
        "plan: fallback free = span{}" ];
    expect_ok "malformed comm-mode exits 2"
      ~expected_status:2
      [ "simulate"; loop "l1.loop"; "--comm-mode"; "bogus" ]
      [ "error: --comm-mode expects one of: strict, service" ];
    expect_ok "fuzz runs the fallback oracle alone"
      [ "fuzz"; "--seed"; "11"; "--count"; "4";
        "--oracle"; "fallback-vs-seq";
        "--corpus-dir"; Filename.get_temp_dir_name () ]
      [ "4 case(s) x 1 oracle(s)"; "0 counterexample(s)" ];
  ]

let suites = [ ("cli", cases) ]
