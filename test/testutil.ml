(* Shared fixtures: the paper's loops L1-L5 and random-nest generators
   for property tests. *)

open Cf_loop

let l1 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[2*i, j] := C[i, j] * 7;
    S2: B[j, i+1] := A[2*i-2, j-1] + C[i-1, j-1];
  end
end
|}

let l2 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i+j, i+j] := B[2*i, j] * A[i+j-1, i+j];
    S2: A[i+j-1, i+j-1] := B[2*i-1, j-1] / 3;
  end
end
|}

let l3 =
  Parse.nest
    {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i, j] := A[i-1, j-1] * 3;
    S2: A[i, j-1] := A[i+1, j-2] / 7;
  end
end
|}

let l4 =
  Parse.nest
    {|
for i1 = 1 to 4
  for i2 = 1 to 4
    for i3 = 1 to 4
      A[i1, i2, i3] := A[i1-1, i2+1, i3-1] + B[i1, i2, i3];
    end
  end
end
|}

let l5 ~m = Cf_exec.Matmul.nest ~m

let all_paper_loops =
  [ ("L1", l1); ("L2", l2); ("L3", l3); ("L4", l4); ("L5(4)", l5 ~m:4) ]

(* Random uniformly-generated loops for property testing now live in
   Cf_check.Gen, shared with the fuzzer; these aliases keep the
   historical names the suites use. *)

let gen_nest = Cf_check.Gen.nest2
let arbitrary_nest = Cf_check.Gen.arbitrary_nest2

(* The second level's bounds shifted by the outer index: Gen nests are
   rectangular, and partitions must be numbered over skewed spaces
   too. *)
let skew (n : Nest.t) =
  let levels = n.Nest.levels in
  if Array.length levels < 2 then n
  else
    let outer = Affine.var levels.(0).Nest.var in
    let shift k (l : Nest.level) =
      if k <> 1 then l
      else
        {
          l with
          Nest.lower = Affine.add l.Nest.lower outer;
          upper = Affine.add l.Nest.upper outer;
        }
    in
    Nest.make (Array.to_list (Array.mapi shift levels)) n.Nest.body

(* Normal-form Gen nests of depth 1-3, and unnormalized ones after the
   normalization front door, each possibly skewed. *)
let mixed_nest =
  let open QCheck.Gen in
  int_range 1 3 >>= fun depth ->
  let p = Cf_check.Gen.default ~depth in
  bool >>= fun unnormalized ->
  bool >>= fun skewed ->
  map
    (fun n -> if skewed then skew n else n)
    (if unnormalized then
       map
         (fun n -> Cf_normalize.Normalize.((normalize n).normalized))
         (Cf_check.Gen.unnormalized p)
     else Cf_check.Gen.nest p)

let arbitrary_mixed_nest =
  QCheck.make ~print:(Format.asprintf "%a" Nest.pp) mixed_nest

(* Wrap a qcheck test as an alcotest case. *)
let qtest ?(count = 100) name prop arb =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
