open Cf_rational
open Cf_linalg
open Cf_loop
module Compile = Cf_exec.Compile

type block = {
  id : int;
  base : int array;
  iterations : int array list;
}

type t = {
  nest : Nest.t;
  space : Subspace.t;
  complement_rows : Vec.t list;
  blocks : block array;
  index : (string, int) Hashtbl.t;  (** coset key -> block array index *)
  members : (int list, int) Hashtbl.t;  (** iteration -> block id *)
}

let coset_key_string complement_rows iter =
  match complement_rows with
  | [] -> "*" (* Ψ is full: a single block *)
  | rows ->
    let v = Vec.of_int_array iter in
    String.concat ";"
      (List.map (fun r -> Rat.to_string (Vec.dot r v)) rows)

let make nest space =
  if Subspace.ambient_dim space <> Nest.depth nest then
    invalid_arg "Refpartition.make: ambient dimension mismatch";
  let complement_rows = Subspace.basis (Subspace.complement space) in
  let groups : (string, int array list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Nest.iter_space nest (fun iter ->
      let key = coset_key_string complement_rows iter in
      match Hashtbl.find_opt groups key with
      | Some l -> l := iter :: !l
      | None ->
        Hashtbl.replace groups key (ref [ iter ]);
        order := key :: !order);
  (* Iterations arrive in lexicographic order, so the first iteration of
     each group is its base point and group creation order sorts blocks
     by base point. *)
  let keys = Array.of_list (List.rev !order) in
  let blocks =
    Array.mapi
      (fun k key ->
        let iters = List.rev !(Hashtbl.find groups key) in
        match iters with
        | [] -> assert false
        | base :: _ -> { id = k + 1; base; iterations = iters })
      keys
  in
  let index = Hashtbl.create (Array.length keys) in
  Array.iteri (fun k key -> Hashtbl.replace index key k) keys;
  let members = Hashtbl.create 256 in
  Array.iter
    (fun b ->
      List.iter
        (fun it -> Hashtbl.replace members (Array.to_list it) b.id)
        b.iterations)
    blocks;
  { nest; space; complement_rows; blocks; index; members }

let nest t = t.nest
let space t = t.space
let blocks t = t.blocks
let block_count t = Array.length t.blocks

let block_of_iteration t iter =
  (* Membership, not just coset-key lookup: a key can collide with a
     block whose line merely passes through an out-of-space [iter]. *)
  match Hashtbl.find_opt t.members (Array.to_list iter) with
  | Some id -> t.blocks.(id - 1)
  | None -> raise Not_found

let block_id_of_iteration t iter = (block_of_iteration t iter).id

let max_block_size t =
  Array.fold_left
    (fun m b -> Stdlib.max m (List.length b.iterations))
    0 t.blocks

let min_block_size t =
  Array.fold_left
    (fun m b -> Stdlib.min m (List.length b.iterations))
    max_int t.blocks

let pp ppf t =
  Format.fprintf ppf "@[<v>iteration partition by %a: %d block(s)@," Subspace.pp
    t.space (block_count t);
  Array.iter
    (fun b ->
      Format.fprintf ppf "  B%d (base %a): %a@," b.id Vec.pp_int b.base
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Vec.pp_int)
        b.iterations)
    t.blocks;
  Format.fprintf ppf "@]"

(* The reference scorer: one pass over the iteration space in execution
   order under the first-touch home rule.  An element's home is the PE
   of the first iteration touching it (within one iteration every site
   runs on the same PE, so intra-iteration order cannot change the
   home); each later access from another PE is one message — exactly
   [Parexec.fallback_homes]'s placement rule followed by
   [Parexec.execute_fallback]'s servicing rule. *)
let estimate ~placement t =
  let prog = Compile.make t.nest in
  let sites = Compile.sites prog in
  let homes =
    Array.map
      (fun _ -> (Hashtbl.create 64 : (int, int) Hashtbl.t))
      (Compile.arrays prog)
  in
  let per_block = Array.make (block_count t) 0 in
  let rr = ref 0 and rw = ref 0 in
  let scratch = Compile.scratch sites in
  Nest.iter_space t.nest (fun iter ->
      let block = block_id_of_iteration t iter in
      let pe = placement block in
      Array.iteri
        (fun si ->
          (* Site 0 is the statement's write, the rest its reads. *)
          Array.iteri (fun k (s : Compile.Site.t) ->
              let scr = scratch.(si).(k) in
              Compile.Site.eval_into s iter scr;
              let tbl = homes.(s.Compile.Site.slot) in
              let packed = Cf_machine.Machine.pack_coords scr in
              match Hashtbl.find_opt tbl packed with
              | None -> Hashtbl.add tbl packed pe
              | Some home ->
                if home <> pe then begin
                  if k = 0 then incr rw else incr rr;
                  per_block.(block - 1) <- per_block.(block - 1) + 1
                end))
        sites);
  {
    Cf_mincomm.Mincomm.messages = !rr + !rw;
    remote_reads = !rr;
    remote_writes = !rw;
    per_block;
  }
