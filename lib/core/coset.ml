open Cf_rational
open Cf_linalg
open Cf_lattice
open Cf_loop

module Key = struct
  type t = int array

  (* Loops, not closures: the fallback scorer looks a key up per
     iteration and candidate, and must not allocate to do so. *)
  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash a =
    let h = ref 17 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + a.(i)
    done;
    !h land max_int
end

module Ktbl = Hashtbl.Make (Key)

type block = { id : int; base : int array; size : int }

type t = {
  nest : Nest.t;
  space : Subspace.t;
  proj : int array array;
  lattice : int array array;
  nz_cols : int array array;
      (* nonzero columns of each lattice row: the walker's per-member
         translate update touches only entries that move *)
  pivots : int array;
  lo : int array;
  hi : int array;
  rectangular : bool;
  blocks : block array;
  index : int Ktbl.t;
}

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

(* The coset map φ and a lattice basis of L = Ψ ∩ Z^n.

   Ψ membership of an integer vector is a rational condition: x ∈ Ψ iff
   C·x = 0 where C's rows are a (denominator-cleared) basis of the
   orthogonal complement.  So L is exactly the integer kernel of C, and
   Intlin.kernel returns a basis of it such that every integer solution
   is a unique *integer* combination — i.e. L is saturated (Z^n / L is
   torsion-free).  The Smith normal form U·B·V = D of that basis then
   has all invariant factors 1, so for a row vector x,

     x ∈ L  ⟺  (x·V)_j = 0 for j ≥ rank.

   Hence φ(x) = ((x·V)_rank, ..., (x·V)_{n−1}) is a linear map Z^n → Z^m
   whose kernel on integer vectors is exactly L: two iterations share a
   block iff their φ images are equal.  One query is an m×n product. *)
let coset_map n space =
  let crows =
    List.map Vec.clear_denominators (Subspace.basis (Subspace.complement space))
  in
  match crows with
  | [] -> ([||], identity n)
  | _ -> (
    match Intlin.kernel (Array.of_list crows) with
    | [] -> (identity n, [||])
    | kern ->
      let b = Array.of_list kern in
      let snf = Smith.compute b in
      let k = snf.Smith.rank in
      if List.exists (fun s -> s <> 1) snf.Smith.divisors then
        invalid_arg "Coset.make: integer kernel basis is not saturated";
      let m = n - k in
      let proj =
        Array.init m (fun r ->
            Array.init n (fun c -> snf.Smith.right.(c).(k + r)))
      in
      (proj, b))

(* φ(iter) into [key], overflow-checked. *)
let key_into proj iter key =
  for r = 0 to Array.length proj - 1 do
    let row = proj.(r) in
    let acc = ref 0 in
    for c = 0 to Array.length row - 1 do
      acc := Oint.add !acc (Oint.mul row.(c) iter.(c))
    done;
    key.(r) <- !acc
  done

let key_of t iter =
  let key = Array.make (Array.length t.proj) 0 in
  key_into t.proj iter key;
  key

(* The block discovery both [make] and [numbering] run: [id_of iter]
   numbers [iter]'s block by first sight, 1-based.  φ is computed into
   one scratch key, copied only when it names a new block; the table
   maps each block's key to its id. *)
let discovery proj =
  let index = Ktbl.create 256 in
  let key = Array.make (Array.length proj) 0 in
  let id_of iter =
    key_into proj iter key;
    match Ktbl.find index key with
    | id -> id
    | exception Not_found ->
      let id = Ktbl.length index + 1 in
      Ktbl.add index (Array.copy key) id;
      id
  in
  (index, id_of)

let check_dim name nest space =
  if Subspace.ambient_dim space <> Nest.depth nest then
    invalid_arg (name ^ ": ambient dimension mismatch")

let numbering nest space =
  check_dim "Coset.numbering" nest space;
  let proj, _ = coset_map (Nest.depth nest) space in
  let index, id_of = discovery proj in
  (id_of, fun () -> Ktbl.length index)

let make nest space =
  let n = Nest.depth nest in
  check_dim "Coset.make" nest space;
  let proj, gens = coset_map n space in
  let hnf = Hnf.compute (Array.to_list (Array.map Array.copy gens)) in
  let lattice = hnf.Hnf.basis and pivots = hnf.Hnf.pivots in
  (* The lattice must be φ's kernel: φ·bᵀ = 0 for every basis row. *)
  Array.iter
    (fun b ->
      Array.iter
        (fun row ->
          let acc = ref 0 in
          Array.iteri (fun c x -> acc := Oint.add !acc (Oint.mul x b.(c))) row;
          assert (!acc = 0))
        proj)
    lattice;
  let lo, hi =
    match Nest.bounding_box nest with
    | Some (lo, hi) -> (lo, hi)
    | None -> (Array.make n 0, Array.make n (-1))
  in
  (* One streaming pass discovers the blocks.  Lexicographic enumeration
     means a block's first-seen iteration is its base point, and
     first-seen order is base-point lexicographic order — exactly the
     oracle's 1-based numbering.  Nothing per-iteration is retained;
     memory is O(#blocks).  [Nest.iter_space] hands over a fresh array
     per iteration, so a new block keeps it as its base. *)
  let index, id_of = discovery proj in
  let bases = ref [] and sizes = ref (Array.make 64 0) in
  Nest.iter_space nest (fun iter ->
      let id = id_of iter in
      if id > Array.length !sizes then begin
        let grown = Array.make (2 * id) 0 in
        Array.blit !sizes 0 grown 0 (Array.length !sizes);
        sizes := grown
      end;
      let s = !sizes in
      if s.(id - 1) = 0 then bases := iter :: !bases;
      s.(id - 1) <- s.(id - 1) + 1);
  let blocks =
    Array.of_list (List.rev !bases)
    |> Array.mapi (fun i base -> { id = i + 1; base; size = !sizes.(i) })
  in
  {
    nest;
    space;
    proj;
    lattice;
    nz_cols =
      Array.map
        (fun row ->
          let l = ref [] in
          Array.iteri (fun j v -> if v <> 0 then l := j :: !l) row;
          Array.of_list (List.rev !l))
        lattice;
    pivots;
    lo;
    hi;
    rectangular = Nest.is_rectangular nest;
    blocks;
    index;
  }

let relabel t nest =
  if Nest.depth nest <> Nest.depth t.nest then
    invalid_arg "Coset.relabel: nest depth mismatch";
  { t with nest }

let nest t = t.nest
let space t = t.space
let blocks t = Array.to_list t.blocks
let block_count t = Array.length t.blocks

let block t ~id =
  if id < 1 || id > Array.length t.blocks then
    invalid_arg "Coset.block: block id out of range";
  t.blocks.(id - 1)

let block_id_of_iteration t iter =
  if not (Nest.mem t.nest iter) then raise Not_found;
  (* Every in-space iteration was covered by the discovery pass, so the
     lookup cannot miss. *)
  Ktbl.find t.index (key_of t iter)

let block_of_iteration_opt t iter =
  if Nest.mem t.nest iter then Ktbl.find_opt t.index (key_of t iter) else None

(* Walk the lattice translate base + Σ c_j·row_j intersected with the
   bounding box.  Rows are in Hermite (echelon) form, so the columns in
   [pivots.(j), pivots.(j+1)) are final once c_0..c_j are fixed and they
   constrain c_j alone: the feasible c_j form one interval computed with
   exact floor/ceil division.  Because the pivot entry is positive and
   all earlier columns are already equal along the walk, ascending c_j
   yields the block's members in lexicographic order — matching the
   oracle's member ordering without materializing anything. *)
let iter_block ?(reuse = false) t ~id f =
  let b = block t ~id in
  let n = Array.length b.base in
  let k = Array.length t.lattice in
  let x = Array.copy b.base in
  let leaf =
    if reuse && t.rectangular then fun () -> f x
    else
      fun () ->
        if t.rectangular || Nest.mem t.nest x then
          f (if reuse then x else Array.copy x)
  in
  if k = 0 then leaf ()
  else begin
    let nz_cols = t.nz_cols in
    let add_mul j c =
      if c <> 0 then begin
        let row = t.lattice.(j) and cols = nz_cols.(j) in
        for i = 0 to Array.length cols - 1 do
          let col = Array.unsafe_get cols i in
          x.(col) <- x.(col) + (c * Array.unsafe_get row col)
        done
      end
    in
    let stop j = if j + 1 < k then t.pivots.(j + 1) else n in
    let rec go j =
      if j = k then leaf ()
      else begin
        let row = t.lattice.(j) in
        let cmin = ref min_int and cmax = ref max_int in
        let empty = ref false in
        for col = t.pivots.(j) to stop j - 1 do
          let coeff = row.(col) and v = x.(col) in
          if coeff = 0 then begin
            if v < t.lo.(col) || v > t.hi.(col) then empty := true
          end
          else begin
            let a = t.lo.(col) - v and bnd = t.hi.(col) - v in
            let l, h =
              if coeff > 0 then (Oint.cdiv a coeff, Oint.fdiv bnd coeff)
              else (Oint.cdiv bnd coeff, Oint.fdiv a coeff)
            in
            if l > !cmin then cmin := l;
            if h < !cmax then cmax := h
          end
        done;
        (* The pivot column always contributes, so the interval is finite
           whenever it is non-empty. *)
        if (not !empty) && !cmin <= !cmax then begin
          let lo_c = !cmin and hi_c = !cmax in
          add_mul j lo_c;
          for c = lo_c to hi_c do
            go (j + 1);
            if c < hi_c then add_mul j 1
          done;
          add_mul j (-hi_c)
        end
      end
    in
    go 0
  end

(* Same walk with [reuse = true] semantics, except that maximal runs at
   the innermost lattice level whose row has a single nonzero column are
   handed to [run] as one call: the vector sits at the run's first
   iteration and the callee accounts for [count] iterations in which
   logical index [q] advances by [step].  Only rectangular cosets
   qualify (a membership test would have to be per-point otherwise);
   everything else falls back to per-iteration [f]. *)
let iter_block_runs t ~id ~run f =
  let b = block t ~id in
  let n = Array.length b.base in
  let k = Array.length t.lattice in
  let x = Array.copy b.base in
  let leaf =
    if t.rectangular then fun () -> f x
    else fun () -> if Nest.mem t.nest x then f x
  in
  if k = 0 then leaf ()
  else begin
    let nz_cols = t.nz_cols in
    let runnable = t.rectangular && Array.length nz_cols.(k - 1) = 1 in
    let add_mul j c =
      if c <> 0 then begin
        let row = t.lattice.(j) and cols = nz_cols.(j) in
        for i = 0 to Array.length cols - 1 do
          let col = Array.unsafe_get cols i in
          x.(col) <- x.(col) + (c * Array.unsafe_get row col)
        done
      end
    in
    let stop j = if j + 1 < k then t.pivots.(j + 1) else n in
    let rec go j =
      if j = k then leaf ()
      else begin
        let row = t.lattice.(j) in
        let cmin = ref min_int and cmax = ref max_int in
        let empty = ref false in
        for col = t.pivots.(j) to stop j - 1 do
          let coeff = row.(col) and v = x.(col) in
          if coeff = 0 then begin
            if v < t.lo.(col) || v > t.hi.(col) then empty := true
          end
          else begin
            let a = t.lo.(col) - v and bnd = t.hi.(col) - v in
            let l, h =
              if coeff > 0 then (Oint.cdiv a coeff, Oint.fdiv bnd coeff)
              else (Oint.cdiv bnd coeff, Oint.fdiv a coeff)
            in
            if l > !cmin then cmin := l;
            if h < !cmax then cmax := h
          end
        done;
        if (not !empty) && !cmin <= !cmax then begin
          let lo_c = !cmin and hi_c = !cmax in
          if j = k - 1 && runnable then begin
            let q = nz_cols.(j).(0) in
            add_mul j lo_c;
            run x ~q ~step:row.(q) ~count:(hi_c - lo_c + 1);
            add_mul j (-lo_c)
          end
          else begin
            add_mul j lo_c;
            for c = lo_c to hi_c do
              go (j + 1);
              if c < hi_c then add_mul j 1
            done;
            add_mul j (-hi_c)
          end
        end
      end
    in
    go 0
  end

let block_iterations t ~id =
  let acc = ref [] in
  iter_block t ~id (fun i -> acc := i :: !acc);
  List.rev !acc

let lattice_rank t = Array.length t.lattice
