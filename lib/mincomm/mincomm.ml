open Cf_core
open Cf_loop
open Cf_linalg
module Compile = Cf_exec.Compile
module Parexec = Cf_exec.Parexec
module Machine = Cf_machine.Machine

type estimate = {
  messages : int;
  remote_reads : int;
  remote_writes : int;
  per_block : int array;
}

type candidate = { origin : string; space : Subspace.t }
type verdict = { strategy : Strategy.t; parallelism : int option }

type t = {
  nest : Nest.t;
  nprocs : int;
  comm_free : bool;
  choice : candidate;
  partition : Iter_partition.t;
  estimate : estimate;
  ranked : (candidate * estimate) list;
}

let theorem_number = function
  | Strategy.Nonduplicate -> 1
  | Strategy.Duplicate -> 2
  | Strategy.Min_nonduplicate -> 3
  | Strategy.Min_duplicate -> 4

(* {2 Candidate subspaces}

   Everything of dimension < n the existing machinery suggests.  The
   theorem spaces come first so that whenever one of them ties on
   predicted volume, ranking (messages, dim, origin) still has a
   deterministic winner; duplicates keep their first origin. *)

let candidates_of facts =
  let nest = Facts.nest facts in
  let n = Nest.depth nest in
  let arrays = Nest.arrays nest in
  let acc = ref [] in
  let add origin space =
    if
      Subspace.dim space < n
      && not (List.exists (fun c -> Subspace.equal c.space space) !acc)
    then acc := { origin; space } :: !acc
  in
  add "theorem-1" (Facts.partitioning_space facts Strategy.Nonduplicate);
  add "theorem-2" (Facts.partitioning_space facts Strategy.Duplicate);
  let psi =
    List.map
      (fun a -> (a, Facts.array_space facts Strategy.Nonduplicate a))
      arrays
  in
  List.iter (fun (a, s) -> add (Printf.sprintf "psi[%s]" a) s) psi;
  List.iter
    (fun a ->
      add
        (Printf.sprintf "psi_r[%s]" a)
        (Facts.array_space facts Strategy.Duplicate a))
    arrays;
  (* Leave-one-out joins: serve all arrays but one locally and let the
     dropped array's accesses pay the messages. *)
  if List.length psi > 1 then
    List.iter
      (fun (dropped, _) ->
        add
          (Printf.sprintf "join-minus[%s]" dropped)
          (Subspace.join_all n
             (List.filter_map
                (fun (a, s) ->
                  if String.equal a dropped then None else Some s)
                psi)))
      psi;
  (* Span of the flow-dependence witnesses: blocks closed under the
     value-carrying differences never ship a flow value. *)
  (let flows =
     List.filter_map
       (fun (d : Cf_dep.Analysis.dep) ->
         match d.kind with
         | Cf_dep.Kind.Flow -> Some (Vec.of_int_array d.witness)
         | _ -> None)
       (List.concat_map (Facts.deps facts) arrays)
   in
   if flows <> [] then add "flow-span" (Subspace.span n flows));
  let unit k = Vec.of_int_array (Array.init n (fun i -> if i = k then 1 else 0)) in
  for k = 0 to n - 1 do
    add (Printf.sprintf "axis[%d]" k) (Subspace.span n [ unit k ])
  done;
  if n > 1 then
    for k = 0 to n - 1 do
      add
        (Printf.sprintf "slab[%d]" k)
        (Subspace.span n
           (List.filter_map
              (fun j -> if j = k then None else Some (unit j))
              (List.init n Fun.id)))
    done;
  add "free" (Subspace.zero n);
  List.rev !acc

let candidates ?search_radius nest =
  candidates_of (Facts.make ?search_radius nest)

let verdicts facts =
  List.map
    (fun strategy -> { strategy; parallelism = Facts.verdict facts strategy })
    Strategy.all

(* {2 First-touch volume estimator}

   One pass over the iteration space in execution order.  An element's
   home is the PE of the first iteration touching it (within one
   iteration every site runs on the same PE, so intra-iteration order
   cannot change the home); each later access from another PE is one
   message.  This is exactly [Parexec.fallback_homes]'s placement rule
   followed by [Parexec.execute_fallback]'s servicing rule, which is why
   predicted counts equal simulated ones. *)

(* Packed coordinates to dense element numbers.  A packed key's low
   three bits are its arity, so the hash mixes the high bits down. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let h = x * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 29)
end)

let grow a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The production scorer: every space scored in one walk.  Per
   iteration, each space's {!Coset.numbering} gives its block and
   [placement] the block's PE; each site's element is evaluated, packed
   and numbered once, in execution order (statements in order, each
   one's write before its reads).  Element [e] of an array has its home
   under space [c] at [e * k + c] of that array's dense [homes] row.
   An element seen for the first time is homed on every space's current
   PE at once, so no access to it in this iteration is remote; every
   other access is checked against each space's home.  Only a first
   sighting — a new element or a new block — allocates.  Returns each
   space's block count and estimate. *)
let score ~placement nest spaces =
  let k = Array.length spaces in
  let prog = Compile.make nest in
  let numberings = Array.map (Coset.numbering nest) spaces in
  let id_of = Array.map fst numberings in
  let sites = Compile.sites prog in
  let scratch = Compile.scratch sites in
  let numbers = Array.map (fun _ -> Itbl.create 64) (Compile.arrays prog) in
  let homes = Array.map (fun _ -> [||]) numbers in
  let block = Array.make k 0 and pe = Array.make k 0 in
  let rr = Array.make k 0 and rw = Array.make k 0 in
  let per_block = Array.make k [||] in
  Compile.iter_space nest (fun iter ->
      for c = 0 to k - 1 do
        let b = id_of.(c) iter in
        block.(c) <- b;
        pe.(c) <- placement b;
        if b > Array.length per_block.(c) then
          per_block.(c) <- grow per_block.(c) b
      done;
      for si = 0 to Array.length sites - 1 do
        let ss = sites.(si) and sc = scratch.(si) in
        for j = 0 to Array.length ss - 1 do
          let s = ss.(j) and el = sc.(j) in
          Compile.Site.eval_into s iter el;
          let slot = s.Compile.Site.slot in
          let packed = Machine.pack_coords el in
          match Itbl.find numbers.(slot) packed with
          | e ->
            let h = homes.(slot) and row = e * k in
            let remote = if j = 0 then rw else rr in
            for c = 0 to k - 1 do
              if h.(row + c) <> pe.(c) then begin
                remote.(c) <- remote.(c) + 1;
                let pb = per_block.(c) and b = block.(c) - 1 in
                pb.(b) <- pb.(b) + 1
              end
            done
          | exception Not_found ->
            let e = Itbl.length numbers.(slot) in
            Itbl.add numbers.(slot) packed e;
            let h = grow homes.(slot) ((e + 1) * k) in
            homes.(slot) <- h;
            Array.blit pe 0 h (e * k) k
        done
      done);
  Array.mapi
    (fun c (_, count) ->
      let blocks = count () in
      ( blocks,
        {
          messages = rr.(c) + rw.(c);
          remote_reads = rr.(c);
          remote_writes = rw.(c);
          per_block = Array.sub per_block.(c) 0 blocks;
        } ))
    numberings

let estimate ~nprocs nest space =
  snd (score ~placement:(Parexec.cyclic ~nprocs) nest [| space |]).(0)

let plan_of_facts ?(nprocs = 4) facts =
  let nest = Facts.nest facts in
  if nprocs < 1 then invalid_arg "Mincomm.plan: nprocs must be positive";
  if Nest.cardinal nest = 0 then
    invalid_arg "Mincomm.plan: empty iteration space";
  if not (Nest.all_uniformly_generated nest) then
    invalid_arg "Mincomm.plan: arrays must be uniformly generated";
  let psi_nd = Facts.partitioning_space facts Strategy.Nonduplicate in
  let comm_free = Strategy.parallelism_degree psi_nd > 0 in
  let cands =
    if comm_free then [ { origin = "theorem-1"; space = psi_nd } ]
    else candidates_of facts
  in
  (* Every candidate is scored in one walk; only the chosen one gets a
     coset index, below. *)
  let scores =
    score ~placement:(Parexec.cyclic ~nprocs) nest
      (Array.of_list (List.map (fun c -> c.space) cands))
  in
  let scored =
    List.mapi (fun i c -> (c, fst scores.(i), snd scores.(i))) cands
  in
  let sorted =
    List.stable_sort
      (fun (c1, _, e1) (c2, _, e2) ->
        let k = compare e1.messages e2.messages in
        if k <> 0 then k
        else
          let k = compare (Subspace.dim c1.space) (Subspace.dim c2.space) in
          if k <> 0 then k else compare c1.origin c2.origin)
      scored
  in
  (* A single-block "plan" is sequential execution renamed; prefer any
     candidate that actually spreads work, even at a higher predicted
     volume. *)
  let choice, _, estimate =
    match List.find_opt (fun (_, blocks, _) -> blocks >= 2) sorted with
    | Some best -> best
    | None -> List.hd sorted
  in
  {
    nest;
    nprocs;
    comm_free;
    choice;
    partition = Iter_partition.make nest choice.space;
    estimate;
    ranked = List.map (fun (c, _, e) -> (c, e)) sorted;
  }

let plan ?search_radius ?nprocs nest =
  plan_of_facts ?nprocs (Facts.make ?search_radius nest)

(* Array names in the order {!Cf_cache.Canon} numbers them: each
   statement's write, then its reads left to right. *)
let array_occurrences nest =
  List.concat_map
    (fun (s : Stmt.t) ->
      s.Stmt.lhs.Aref.array
      :: List.map (fun (r : Aref.t) -> r.Aref.array) (Stmt.reads s))
    nest.Nest.body

let relabel t nest =
  let old_names = array_occurrences t.nest
  and new_names = array_occurrences nest in
  if
    Nest.depth nest <> Nest.depth t.nest
    || List.length old_names <> List.length new_names
  then invalid_arg "Mincomm.relabel: nest shape mismatch";
  let rename = Hashtbl.create 8 in
  List.iter2 (Hashtbl.replace rename) old_names new_names;
  (* Origins that name an array ("psi[A]", "join-minus[A]", ...) follow
     the renaming; "axis[0]" and the rest carry no array name. *)
  let candidate c =
    let n = String.length c.origin in
    match String.index_opt c.origin '[' with
    | Some i when c.origin.[n - 1] = ']' -> (
      match Hashtbl.find_opt rename (String.sub c.origin (i + 1) (n - i - 2)) with
      | Some a -> { c with origin = String.sub c.origin 0 (i + 1) ^ a ^ "]" }
      | None -> c)
    | _ -> c
  in
  {
    t with
    nest;
    choice = candidate t.choice;
    partition = Iter_partition.relabel t.partition nest;
    ranked = List.map (fun (c, e) -> (candidate c, e)) t.ranked;
  }

let servable t = Iter_partition.block_count t.partition >= 2

let describe ~verdicts ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf ppf "Theorem %d (%s): %s@,"
        (theorem_number v.strategy)
        (Strategy.to_string v.strategy)
        (match v.parallelism with
        | Some 0 -> "rejected (dim Psi = n, no parallelism)"
        | Some p -> Printf.sprintf "parallelism %d" p
        | None -> "skipped (iteration space too large for exact analysis)"))
    verdicts;
  if t.comm_free then
    Format.fprintf ppf "plan: exact (communication-free) via %s@,"
      t.choice.origin
  else
    Format.fprintf ppf "plan: fallback %s = %a@," t.choice.origin Subspace.pp
      t.choice.space;
  Format.fprintf ppf "blocks: %d on %d PE(s), cyclic@,"
    (Iter_partition.block_count t.partition)
    t.nprocs;
  Format.fprintf ppf
    "predicted volume: %d message(s) (%d remote read(s), %d remote write(s))"
    t.estimate.messages t.estimate.remote_reads t.estimate.remote_writes;
  (match t.ranked with
  | [] | [ _ ] -> ()
  | _ ->
    Format.fprintf ppf "@,candidates (best first):";
    List.iter
      (fun (c, e) ->
        Format.fprintf ppf "@,  %-16s dim %d  %d message(s)" c.origin
          (Subspace.dim c.space) e.messages)
      t.ranked);
  Format.fprintf ppf "@]"
