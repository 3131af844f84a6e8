(* Canonicalization and memo-cache tests: normal form invariance,
   LRU behavior, and the property that a plan served from the cache
   (computed on the canonical nest, relabeled to the caller's names) is
   indistinguishable from a cold plan of the caller's nest. *)

open Testutil
open Cf_loop
open Cf_cache

(* An injective renaming that leaves no name unchanged. *)
let scramble ?(salt = "z") nest =
  Canon.rename
    ~index:(fun v -> "idx_" ^ v ^ "_" ^ salt)
    ~array:(fun a -> "Arr_" ^ a ^ "_" ^ salt)
    ~scalar:(fun s -> "sc_" ^ s ^ "_" ^ salt)
    ~label:(fun k _ -> Printf.sprintf "Lab%d_%s" k salt)
    nest

let describe plan =
  Format.asprintf "%a" Cf_pipeline.Pipeline.describe plan

let plans_agree name (a : Cf_pipeline.Pipeline.t) (b : Cf_pipeline.Pipeline.t)
    =
  check_int (name ^ ": parallelism")
    (Cf_pipeline.Pipeline.parallelism a)
    (Cf_pipeline.Pipeline.parallelism b);
  check_int (name ^ ": block count")
    (Cf_pipeline.Pipeline.block_count a)
    (Cf_pipeline.Pipeline.block_count b);
  check_bool (name ^ ": psi equal") true
    (Cf_linalg.Subspace.equal a.Cf_pipeline.Pipeline.space
       b.Cf_pipeline.Pipeline.space);
  check_bool (name ^ ": verified")
    (Cf_pipeline.Pipeline.verified a)
    (Cf_pipeline.Pipeline.verified b);
  check_string (name ^ ": describe") (describe a) (describe b)

(* Loop files shipped with the repo (resolved as in test_cli). *)
let root =
  let exe_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat exe_dir "..") "..") ".."

let example_nests () =
  let dir = Filename.concat root "examples/loops" in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
    |> List.sort String.compare
    |> List.concat_map (fun f ->
           match Parse.program_of_file (Filename.concat dir f) with
           | nests ->
             List.mapi
               (fun k n -> (Printf.sprintf "%s#%d" f (k + 1), n))
               nests
           | exception _ -> [])
    |> List.filter (fun (_, n) ->
           Cf_pipeline.Diagnose.usable (Cf_pipeline.Diagnose.check n))

let canon_cases =
  [
    Alcotest.test_case "canonicalize is idempotent" `Quick (fun () ->
        List.iter
          (fun (name, nest) ->
            let c = Canon.canonicalize nest in
            let c' = Canon.canonicalize c.Canon.nest in
            check_string (name ^ " key stable") c.Canon.key c'.Canon.key;
            check_string (name ^ " digest stable") c.Canon.digest
              c'.Canon.digest)
          all_paper_loops);
    Alcotest.test_case "digest invariant under renaming" `Quick (fun () ->
        List.iter
          (fun (name, nest) ->
            check_string name (Canon.digest nest)
              (Canon.digest (scramble nest)))
          all_paper_loops);
    Alcotest.test_case "different nests get different digests" `Quick
      (fun () ->
        let ds = List.map (fun (_, n) -> Canon.digest n) all_paper_loops in
        check_int "all distinct" (List.length ds)
          (List.length (List.sort_uniq String.compare ds)));
    Alcotest.test_case "canonical names are normalized" `Quick (fun () ->
        let c = Canon.canonicalize l1 in
        let idx = Nest.indices c.Canon.nest in
        check_string "first index" "x1" idx.(0);
        check_string "second index" "x2" idx.(1);
        check_bool "arrays interned" true
          (List.for_all
             (fun a -> String.length a > 1 && a.[0] = 'A')
             (Nest.arrays c.Canon.nest)));
    qtest ~count:50 "digest invariant on random nests" (fun nest ->
        Canon.digest nest = Canon.digest (scramble nest)
        && Canon.digest nest
           = Canon.digest (scramble ~salt:"other" nest))
      arbitrary_nest;
    (* Round-trip drift check: relabeling the *canonical* nest and
       re-canonicalizing must reproduce the identical canonical form —
       key, digest and serialized nest — so any silent drift in the
       normal form shows up as a key/digest mismatch here. *)
    qtest ~count:50 "canonical form survives a round-trip relabel" (fun nest ->
        let c = Canon.canonicalize nest in
        let c' = Canon.canonicalize (scramble ~salt:"rt" c.Canon.nest) in
        c'.Canon.key = c.Canon.key
        && c'.Canon.digest = c.Canon.digest
        && Canon.serialize c'.Canon.nest = Canon.serialize c.Canon.nest)
      arbitrary_nest;
  ]

let memo_cases =
  [
    Alcotest.test_case "LRU eviction and counters" `Quick (fun () ->
        let m = Memo.create ~capacity:2 () in
        Memo.add m "a" 1;
        Memo.add m "b" 2;
        check_bool "a hit" true (Memo.find m "a" = Some 1);
        Memo.add m "c" 3;
        (* b was least recently used, so it went. *)
        check_bool "b evicted" true (Memo.find m "b" = None);
        check_bool "a still cached" true (Memo.find m "a" = Some 1);
        check_bool "c cached" true (Memo.find m "c" = Some 3);
        let s = Memo.stats m in
        check_int "hits" 3 s.Memo.hits;
        check_int "misses" 1 s.Memo.misses;
        check_int "evictions" 1 s.Memo.evictions;
        check_int "size" 2 s.Memo.size);
    Alcotest.test_case "find_or_compute computes once" `Quick (fun () ->
        let m = Memo.create ~capacity:4 () in
        let calls = ref 0 in
        let f () = incr calls; 42 in
        let v1, hit1 = Memo.find_or_compute m "k" f in
        let v2, hit2 = Memo.find_or_compute m "k" f in
        check_int "value" 42 v1;
        check_int "value again" 42 v2;
        check_bool "first was a miss" false hit1;
        check_bool "second was a hit" true hit2;
        check_int "computed once" 1 !calls);
    Alcotest.test_case "overwrite refreshes recency" `Quick (fun () ->
        let m = Memo.create ~capacity:2 () in
        Memo.add m "a" 1;
        Memo.add m "b" 2;
        Memo.add m "a" 10;
        Memo.add m "c" 3;
        check_bool "b evicted (a was refreshed)" true (Memo.find m "b" = None);
        check_bool "a has new value" true (Memo.find m "a" = Some 10));
  ]

(* The tentpole property: a cached plan relabeled to the caller's names
   is indistinguishable from a cold plan of the caller's nest. *)

let planner_agrees ?strategy name planner nest ~expect_hit =
  let { Cf_service.Planner.plan = via_cache; hit; _ } =
    Cf_service.Planner.plan ?strategy planner nest
  in
  let direct = Cf_pipeline.Pipeline.plan ?strategy nest in
  check_bool (name ^ ": cache hit") expect_hit hit;
  plans_agree name via_cache direct

let planner_cases =
  [
    Alcotest.test_case "plan(canonical) agrees with plan(nest)" `Quick
      (fun () ->
        List.iter
          (fun (name, nest) ->
            let c = Canon.canonicalize nest in
            List.iter
              (fun strategy ->
                let a =
                  Cf_pipeline.Pipeline.plan ~strategy c.Canon.nest
                in
                let b = Cf_pipeline.Pipeline.plan ~strategy nest in
                check_int
                  (Printf.sprintf "%s/%s parallelism" name
                     (Cf_core.Strategy.to_string strategy))
                  (Cf_pipeline.Pipeline.parallelism a)
                  (Cf_pipeline.Pipeline.parallelism b);
                check_int
                  (Printf.sprintf "%s/%s blocks" name
                     (Cf_core.Strategy.to_string strategy))
                  (Cf_pipeline.Pipeline.block_count a)
                  (Cf_pipeline.Pipeline.block_count b);
                check_bool
                  (Printf.sprintf "%s/%s verified" name
                     (Cf_core.Strategy.to_string strategy))
                  (Cf_pipeline.Pipeline.verified b)
                  (Cf_pipeline.Pipeline.verified a))
              Cf_core.Strategy.all)
          (all_paper_loops
          @ List.map
              (fun k ->
                ( k.Cf_workloads.Workloads.name,
                  k.Cf_workloads.Workloads.build ~size:4 ))
              Cf_workloads.Workloads.all));
    Alcotest.test_case "cache hit across renamed example loops" `Quick
      (fun () ->
        let planner = Cf_service.Planner.create () in
        List.iter
          (fun (name, nest) ->
            planner_agrees name planner nest ~expect_hit:false;
            planner_agrees (name ^ " (replay)") planner nest ~expect_hit:true;
            planner_agrees
              (name ^ " (renamed)")
              planner (scramble nest) ~expect_hit:true;
            planner_agrees
              (name ^ " (renamed twice)")
              planner
              (scramble ~salt:"q" nest)
              ~expect_hit:true)
          (example_nests ()));
    Alcotest.test_case "hit with exact analysis relabels cleanly" `Quick
      (fun () ->
        let planner = Cf_service.Planner.create () in
        let strategy = Cf_core.Strategy.Min_duplicate in
        let { Cf_service.Planner.plan = cold; hit = h0; _ } =
          Cf_service.Planner.plan ~strategy planner l3
        in
        check_bool "cold miss" false h0;
        let renamed = scramble l3 in
        let { Cf_service.Planner.plan = warm; hit = h1; _ } =
          Cf_service.Planner.plan ~strategy planner renamed
        in
        check_bool "warm hit" true h1;
        plans_agree "L3 min-duplicate" warm
          (Cf_pipeline.Pipeline.plan ~strategy renamed);
        (* The relabeled exact analysis must also drive execution. *)
        let sim = Cf_pipeline.Pipeline.simulate ~procs:2 warm in
        check_bool "simulation ok" true
          (Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report);
        ignore cold);
    qtest ~count:40 "random nests: cached plan equals direct plan"
      (fun nest ->
        let planner = Cf_service.Planner.create () in
        let strategy = Cf_core.Strategy.Duplicate in
        let { Cf_service.Planner.hit = h0; _ } =
          Cf_service.Planner.plan ~strategy planner nest
        in
        let { Cf_service.Planner.plan = via; hit = h1; _ } =
          Cf_service.Planner.plan ~strategy planner (scramble nest)
        in
        let direct =
          Cf_pipeline.Pipeline.plan ~strategy (scramble nest)
        in
        (not h0) && h1
        && describe via = describe direct
        && Cf_pipeline.Pipeline.verified via
           = Cf_pipeline.Pipeline.verified direct)
      arbitrary_nest;
  ]

let suites =
  [
    ("cache-canon", canon_cases);
    ("cache-memo", memo_cases);
    ("cache-planner", planner_cases);
  ]
