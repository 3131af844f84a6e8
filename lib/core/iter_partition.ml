open Cf_linalg
open Cf_loop

type block = {
  id : int;
  base : int array;
  iterations : int array list;
}

(* The coset index itself: members are enumerated on demand and nothing
   is cached, so the value holds nothing per iteration and is never
   written after [make]. *)
type t = Coset.t

let make nest space =
  if Subspace.ambient_dim space <> Nest.depth nest then
    invalid_arg "Iter_partition.make: ambient dimension mismatch";
  Coset.make nest space

let coset t = t

let relabel = Coset.relabel
let nest = Coset.nest
let space = Coset.space
let block_count = Coset.block_count

let block t id =
  let b = Coset.block t ~id in
  { id; base = b.Coset.base; iterations = Coset.block_iterations t ~id }

let blocks t = Array.init (Coset.block_count t) (fun k -> block t (k + 1))
let block_id_of_iteration = Coset.block_id_of_iteration
let block_of_iteration t iter = block t (block_id_of_iteration t iter)

let fold_sizes f init t =
  List.fold_left (fun m (b : Coset.block) -> f m b.Coset.size) init
    (Coset.blocks t)

let max_block_size t = fold_sizes Stdlib.max 0 t
let min_block_size t = fold_sizes Stdlib.min max_int t

let pp ppf t =
  Format.fprintf ppf "@[<v>iteration partition by %a: %d block(s)@," Subspace.pp
    (space t) (block_count t);
  for id = 1 to block_count t do
    let b = block t id in
    Format.fprintf ppf "  B%d (base %a): %a@," b.id Vec.pp_int b.base
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
         Vec.pp_int)
      b.iterations
  done;
  Format.fprintf ppf "@]"
