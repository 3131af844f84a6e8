(* Closed-form coset indexing and the partition view over it vs the
   materialized reference.

   Coset and Iter_partition must reproduce Cf_check.Refpartition
   bit-for-bit: block count, numbering, base points, sizes, member
   lists (and their order), the in/out-of-space behaviour of the
   iteration lookups, the extreme block sizes and the printed text. *)

open Cf_linalg
open Cf_core
open Testutil
module R = Cf_check.Refpartition

let v l = Vec.of_int_list l
let span n vs = Subspace.span n (List.map v vs)

let blocks_of_view view =
  Array.to_list
    (Array.map
       (fun (b : Iter_partition.block) -> (b.id, b.base, b.iterations))
       (Iter_partition.blocks view))

let blocks_of_ref rp =
  Array.to_list
    (Array.map (fun (b : R.block) -> (b.id, b.base, b.iterations)) (R.blocks rp))

(* Every point of the nest's bounding box, in- and out-of-space. *)
let box_points nest =
  match Cf_loop.Nest.bounding_box nest with
  | None -> []
  | Some (lo, hi) ->
    let n = Array.length lo in
    let acc = ref [] in
    let x = Array.copy lo in
    let rec go k =
      if k = n then acc := Array.copy x :: !acc
      else
        for c = lo.(k) to hi.(k) do
          x.(k) <- c;
          go (k + 1)
        done
    in
    go 0;
    List.rev !acc

(* The view against the reference on everything it answers. *)
let view_matches ?(msg = "") nest view =
  let rp = R.make nest (Iter_partition.space view) in
  let ctx s = msg ^ s in
  check_int (ctx "view block count") (R.block_count rp)
    (Iter_partition.block_count view);
  Alcotest.(check (list (triple int (array int) (list (array int)))))
    (ctx "view blocks") (blocks_of_ref rp) (blocks_of_view view);
  let found f it = match f it with x -> Some x | exception Not_found -> None in
  List.iter
    (fun it ->
      let want = found (R.block_id_of_iteration rp) it in
      check_bool (ctx "reference covers exactly the space")
        (Cf_loop.Nest.mem nest it) (want <> None);
      Alcotest.(check (option int)) (ctx "view lookup") want
        (found (Iter_partition.block_id_of_iteration view) it);
      Alcotest.(check (option (triple int (array int) (list (array int)))))
        (ctx "view block_of_iteration")
        (Option.map
           (fun (b : R.block) -> (b.id, b.base, b.iterations))
           (found (R.block_of_iteration rp) it))
        (Option.map
           (fun (b : Iter_partition.block) -> (b.id, b.base, b.iterations))
           (found (Iter_partition.block_of_iteration view) it)))
    (box_points nest);
  check_int (ctx "max size") (R.max_block_size rp)
    (Iter_partition.max_block_size view);
  check_int (ctx "min size") (R.min_block_size rp)
    (Iter_partition.min_block_size view);
  check_string (ctx "pp")
    (Format.asprintf "%a" R.pp rp)
    (Format.asprintf "%a" Iter_partition.pp view)

(* Exhaustive parity of a (nest, psi) instance against the reference:
   the index member by member, then the view built over its own
   index. *)
let agrees ?(msg = "") nest psi =
  let oracle = R.make nest psi in
  let fast = Coset.make nest psi in
  let ctx s = Printf.sprintf "%s%s" msg s in
  check_int (ctx "block count") (R.block_count oracle)
    (Coset.block_count fast);
  Array.iter
    (fun (ob : R.block) ->
      let fb = Coset.block fast ~id:ob.id in
      check_int (ctx "id") ob.id fb.Coset.id;
      Alcotest.(check (array int)) (ctx "base") ob.base fb.Coset.base;
      check_int (ctx "size") (List.length ob.iterations) fb.Coset.size;
      Alcotest.(check (list (array int)))
        (ctx "members") ob.iterations
        (Coset.block_iterations fast ~id:ob.id);
      List.iter
        (fun it ->
          check_int (ctx "lookup")
            (R.block_id_of_iteration oracle it)
            (Coset.block_id_of_iteration fast it))
        ob.iterations)
    (R.blocks oracle);
  view_matches ~msg nest (Iter_partition.make nest psi)

let strategy_psi strategy nest = Strategy.partitioning_space strategy nest

let fixed_cases =
  [
    Alcotest.test_case "L1 span{(1,1)} parity" `Quick (fun () ->
        agrees l1 (span 2 [ [ 1; 1 ] ]));
    Alcotest.test_case "L1 closed-form facts" `Quick (fun () ->
        let c = Coset.make l1 (span 2 [ [ 1; 1 ] ]) in
        check_int "7 blocks" 7 (Coset.block_count c);
        let b5 = Coset.block c ~id:5 in
        Alcotest.(check (array int)) "B5 base" [| 2; 1 |] b5.Coset.base;
        check_int "lattice rank" 1 (Coset.lattice_rank c));
    Alcotest.test_case "zero space: singletons" `Quick (fun () ->
        agrees l2 (Subspace.zero 2);
        let c = Coset.make l2 (Subspace.zero 2) in
        check_int "16 blocks" 16 (Coset.block_count c);
        check_int "rank 0" 0 (Coset.lattice_rank c));
    Alcotest.test_case "full space: one block" `Quick (fun () ->
        agrees l1 (Subspace.full 2);
        let c = Coset.make l1 (Subspace.full 2) in
        check_int "1 block" 1 (Coset.block_count c);
        check_int "all iterations" 16 (Coset.block c ~id:1).Coset.size);
    Alcotest.test_case "non-integer direction span{(1/2,1)}" `Quick (fun () ->
        (* The saturated lattice is span{(1,2)}, not the primitive
           multiple of the rational generator's clearing. *)
        agrees l1
          (Subspace.span 2
             [ Vec.of_list [ Cf_rational.Rat.make 1 2; Cf_rational.Rat.one ] ]));
    Alcotest.test_case "3-deep L4, skew span" `Quick (fun () ->
        agrees l4 (span 3 [ [ 1; -1; 1 ] ]);
        agrees l4 (span 3 [ [ 1; 0; 0 ]; [ 0; 1; 1 ] ]));
    Alcotest.test_case "out-of-space lookups raise" `Quick (fun () ->
        let c = Coset.make l1 (span 2 [ [ 1; 1 ] ]) in
        List.iter
          (fun it ->
            Alcotest.check_raises "outside" Not_found (fun () ->
                ignore (Coset.block_id_of_iteration c it)))
          [ [| 0; 1 |]; [| 5; 4 |]; [| 1 |]; [| 1; 2; 3 |] ];
        check_bool "opt none" true
          (Coset.block_of_iteration_opt c [| 0; 0 |] = None);
        check_bool "opt some" true
          (Coset.block_of_iteration_opt c [| 1; 1 |] <> None));
    Alcotest.test_case "bad block id" `Quick (fun () ->
        let c = Coset.make l1 (span 2 [ [ 1; 1 ] ]) in
        Alcotest.check_raises "id 0"
          (Invalid_argument "Coset.block: block id out of range") (fun () ->
            ignore (Coset.block c ~id:0)));
  ]

(* Every seed workload under every strategy, oracle vs closed form. *)
let workload_cases =
  let paper =
    List.map (fun (name, nest) -> (name, nest)) all_paper_loops
  in
  let kernels =
    List.map
      (fun (k : Cf_workloads.Workloads.kernel) ->
        (k.Cf_workloads.Workloads.name, k.Cf_workloads.Workloads.build ~size:4))
      Cf_workloads.Workloads.all
  in
  List.map
    (fun (name, nest) ->
      Alcotest.test_case (Printf.sprintf "%s all strategies" name) `Quick
        (fun () ->
          List.iter
            (fun strategy ->
              let msg =
                Printf.sprintf "%s/%s " name (Strategy.to_string strategy)
              in
              agrees ~msg nest (strategy_psi strategy nest))
            Strategy.all))
    (paper @ kernels)

(* Randomized nests: strategy spaces plus raw random spans, so the
   closed form is exercised on subspaces it did not co-evolve with. *)
let property_cases =
  [
    qtest ~count:60 "random nests: strategy spaces match oracle"
      (fun nest ->
        List.iter
          (fun strategy -> agrees nest (strategy_psi strategy nest))
          [ Strategy.Nonduplicate; Strategy.Duplicate ];
        true)
      arbitrary_nest;
    qtest ~count:60 "random nests: random spans match oracle"
      (fun (nest, (a, b)) ->
        agrees nest (span 2 [ [ a; b ] ]);
        true)
      QCheck.(
        pair arbitrary_nest (pair (int_range (-3) 3) (int_range (-3) 3)));
  ]

(* The view against the reference over every space a plan can carry:
   the theorem spaces and the fallback tier's candidates on the nests
   the planner accepts, plus the zero, full and diagonal spaces on
   every nest — each over the nest and, relabeled, over a renaming. *)
let view_spaces nest =
  let n = Cf_loop.Nest.depth nest in
  let fixed =
    [ Subspace.zero n; Subspace.full n; span n [ List.init n (fun _ -> 1) ] ]
  in
  if
    Cf_loop.Nest.cardinal nest = 0
    || not (Cf_loop.Nest.all_uniformly_generated nest)
  then fixed
  else
    List.map (fun s -> Strategy.partitioning_space s nest) Strategy.all
    @ List.map
        (fun (c : Cf_mincomm.Mincomm.candidate) -> c.Cf_mincomm.Mincomm.space)
        (Cf_mincomm.Mincomm.candidates nest)
    @ fixed

let rename nest =
  Cf_cache.Canon.rename
    ~index:(fun s -> s ^ "0")
    ~array:(fun s -> "Z" ^ s)
    ~scalar:(fun s -> s ^ "0")
    nest

let view_equals_reference ?(msg = "") nest =
  let renamed = rename nest in
  List.iter
    (fun psi ->
      let view = Iter_partition.make nest psi in
      view_matches ~msg nest view;
      let relabeled = Iter_partition.relabel view renamed in
      check_bool (msg ^ "relabeled onto the renaming") true
        (Iter_partition.nest relabeled == renamed);
      view_matches ~msg:(msg ^ "relabeled ") renamed relabeled)
    (view_spaces nest);
  true

let view_cases =
  [
    Alcotest.test_case "paper loops and kernels 1-6: view = reference" `Quick
      (fun () ->
        let kernels =
          List.concat_map
            (fun (k : Cf_workloads.Workloads.kernel) ->
              List.init 6 (fun i ->
                  ( Printf.sprintf "%s/%d" k.Cf_workloads.Workloads.name (i + 1),
                    k.Cf_workloads.Workloads.build ~size:(i + 1) )))
            Cf_workloads.Workloads.all
        in
        List.iter
          (fun (name, nest) ->
            ignore (view_equals_reference ~msg:(name ^ " ") nest))
          (all_paper_loops @ kernels));
    qtest ~count:80
      "Gen nests (normal, normalized, skewed): view = reference"
      (fun nest -> view_equals_reference nest)
      arbitrary_mixed_nest;
  ]

let suites =
  [
    ("coset.fixed", fixed_cases);
    ("coset.workloads", workload_cases);
    ("coset.property", property_cases);
    ("coset.view", view_cases);
  ]
