(* Helper tests for the benchmark: the tail-percentile rule, renamed
   hot nests keeping their canonical digest, and seed-determined
   inputs. *)

open Cf_perfbench

(* The test runs in _build/default/perfbench/test; the loops are copied
   to _build/default/examples/loops. *)
let root = "../.."

let samples n = Stats.sorted (List.init n (fun i -> float_of_int (n - i)))

let check_tail n ?max_p expected () =
  let p, v = Stats.tail ?max_p (samples n) in
  Alcotest.(check (float 0.)) "percentile" expected p;
  Alcotest.(check (float 0.)) "value" (Stats.percentile (samples n) expected) v;
  Alcotest.(check bool) "at least 10 beyond" true
    (expected = 50. || Stats.beyond n p >= Stats.min_beyond)

let test_percentile () =
  let s = samples 100 in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile s 50.);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Stats.percentile s 99.);
  Alcotest.(check (float 0.)) "p100 of 1..100" 100. (Stats.percentile s 100.);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 99.);
  Alcotest.(check int) "beyond p99 of 999" 9 (Stats.beyond 999 99.)

let test_rename_digest () =
  let hot = Inputs.hot_set ~root in
  Alcotest.(check int) "hot set size" Inputs.hot_size (Array.length hot);
  let rng = Random.State.make [| 7 |] in
  Array.iter
    (fun nest ->
      for _ = 1 to 3 do
        let renamed = Inputs.rename rng nest in
        let src = Cf_check.Corpus.render renamed in
        Alcotest.(check bool) "renaming changes the text" true
          (src <> Cf_check.Corpus.render nest);
        Alcotest.(check string) "same canonical digest"
          (Cf_cache.Canon.digest nest)
          (Cf_cache.Canon.digest (Cf_loop.Parse.nest src))
      done)
    hot

let test_inputs_deterministic () =
  let texts c = List.map (fun (e : Inputs.entry) -> e.src) c in
  let a = Inputs.plan_corpus ~root ~seed:5 in
  Alcotest.(check (list string)) "same seed, same corpus" (texts a)
    (texts (Inputs.plan_corpus ~root ~seed:5));
  Alcotest.(check bool) "another seed, another corpus" true
    (texts a <> texts (Inputs.plan_corpus ~root ~seed:6));
  let stream seed =
    let hot = Inputs.hot_set ~root in
    Array.map (Array.map (fun (r : Inputs.request) -> r.src))
      (Inputs.requests ~seed ~hot ~conns:2 ~count:300)
  in
  let s = stream 5 in
  Alcotest.(check bool) "same seed, same request stream" true (s = stream 5);
  let longer =
    Inputs.requests ~seed:5 ~hot:(Inputs.hot_set ~root) ~conns:2 ~count:400
  in
  Alcotest.(check bool) "a shorter stream is a prefix" true
    (Array.for_all2
       (fun short long ->
         Array.for_all2 (fun a (b : Inputs.request) -> a = b.src) short
           (Array.sub long 0 300))
       s longer);
  let hot = Inputs.hot_set ~root in
  let reqs = Inputs.requests ~seed:5 ~hot ~conns:2 ~count:300 in
  let fresh =
    List.concat_map
      (fun rs ->
        List.filter_map
          (fun (r : Inputs.request) ->
            if r.hot = None then
              Some (Cf_cache.Canon.digest (Cf_loop.Parse.nest r.src))
            else None)
          (Array.to_list rs))
      (Array.to_list reqs)
  in
  let hot_digests = Array.to_list (Array.map Cf_cache.Canon.digest hot) in
  Alcotest.(check int) "fresh nests are pairwise distinct"
    (List.length fresh)
    (List.length (List.sort_uniq compare fresh));
  Alcotest.(check bool) "fresh nests miss the hot set" true
    (List.for_all (fun d -> not (List.mem d hot_digests)) fresh)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail of 1000 samples is p99" `Quick
            (check_tail 1000 99.);
          Alcotest.test_case "tail of 999 samples is p98" `Quick
            (check_tail 999 98.);
          Alcotest.test_case "tail of 10000 samples uncapped is p99.9" `Quick
            (check_tail 10000 ~max_p:100. 99.9);
          Alcotest.test_case "tail of 10000 samples capped is p99" `Quick
            (check_tail 10000 99.);
          Alcotest.test_case "tail of 15 samples falls back to p50" `Quick
            (check_tail 15 50.);
        ] );
      ( "inputs",
        [
          Alcotest.test_case "renamed hot nests keep their digest" `Quick
            test_rename_digest;
          Alcotest.test_case "inputs are a function of the seed" `Quick
            test_inputs_deterministic;
        ] );
    ]
