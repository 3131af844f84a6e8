open Cf_core

let max_block_makespan ?(cost = Cf_machine.Cost.transputer) partition =
  float_of_int (Iter_partition.max_block_size partition)
  *. cost.Cf_machine.Cost.t_comp

(* Block sizes come from the coset index: nothing is enumerated. *)
let blocks partition = Coset.blocks (Iter_partition.coset partition)

let per_pe_iterations ~procs partition =
  if procs < 1 then invalid_arg "Estimate.per_pe_iterations: procs < 1";
  let out = Array.make procs 0 in
  List.iter
    (fun (b : Coset.block) ->
      let pe = Parexec.cyclic ~nprocs:procs b.id in
      out.(pe) <- out.(pe) + b.size)
    (blocks partition);
  out

let cyclic_makespan ?(cost = Cf_machine.Cost.transputer) ~procs partition =
  let loads = per_pe_iterations ~procs partition in
  float_of_int (Array.fold_left max 0 loads) *. cost.Cf_machine.Cost.t_comp

let speedup_limit partition =
  let total =
    List.fold_left (fun acc (b : Coset.block) -> acc + b.size) 0
      (blocks partition)
  in
  let biggest = Iter_partition.max_block_size partition in
  if biggest = 0 then 0. else float_of_int total /. float_of_int biggest
