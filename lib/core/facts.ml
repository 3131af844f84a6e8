open Cf_linalg
open Cf_loop
open Cf_dep

type strategy = Nonduplicate | Duplicate | Min_nonduplicate | Min_duplicate

let uses_exact_analysis = function
  | Nonduplicate | Duplicate -> false
  | Min_nonduplicate | Min_duplicate -> true

type per_array = {
  deps : Analysis.dep list Lazy.t;
  psi : Subspace.t Lazy.t;
  psi_r : Subspace.t Lazy.t;
  psi_min : Subspace.t Lazy.t;
  psi_min_r : Subspace.t Lazy.t;
}

type t = {
  nest : Nest.t;
  arrays : (string * per_array) list;  (** in [Nest.arrays] order *)
  fresh : string -> per_array;  (** for a name outside [arrays] *)
  exact_result : Exact.result Lazy.t;
  exact : Exact.result option Lazy.t;
  spaces : Subspace.t Lazy.t array;  (** indexed by [slot] *)
}

let slot = function
  | Nonduplicate -> 0
  | Duplicate -> 1
  | Min_nonduplicate -> 2
  | Min_duplicate -> 3

let strategies = [| Nonduplicate; Duplicate; Min_nonduplicate; Min_duplicate |]

let pick strategy a =
  match strategy with
  | Nonduplicate -> a.psi
  | Duplicate -> a.psi_r
  | Min_nonduplicate -> a.psi_min
  | Min_duplicate -> a.psi_min_r

let make ?search_radius ?exact nest =
  let exact_result =
    match exact with
    | Some e -> Lazy.from_val e
    | None -> lazy (Exact.analyze nest)
  in
  let useful = lazy (Exact.useful_deps (Lazy.force exact_result)) in
  let fresh name =
    let deps = lazy (Analysis.deps_of_array ?search_radius nest name) in
    {
      deps;
      psi = lazy (Refspace.reference_space ?search_radius nest name);
      psi_r =
        lazy (Refspace.reduced_space_of_deps nest name (Lazy.force deps));
      psi_min =
        lazy (Refspace.minimal_space_of_deps nest name (Lazy.force useful));
      psi_min_r =
        lazy
          (Refspace.minimal_space_of_deps ~kinds:[ Kind.Flow ] nest name
             (Lazy.force useful));
    }
  in
  let arrays = List.map (fun name -> (name, fresh name)) (Nest.arrays nest) in
  let join strategy =
    lazy
      (List.fold_left
         (fun acc (_, a) -> Subspace.join acc (Lazy.force (pick strategy a)))
         (Subspace.zero (Nest.depth nest))
         arrays)
  in
  {
    nest;
    arrays;
    fresh;
    exact_result;
    exact =
      lazy
        (if Nest.cardinal nest > Exact.analysis_limit then None
         else try Some (Lazy.force exact_result) with _ -> None);
    spaces = Array.map join strategies;
  }

let nest t = t.nest

let array t name =
  match List.assoc_opt name t.arrays with Some a -> a | None -> t.fresh name

let deps t name = Lazy.force (array t name).deps
let exact_result t = Lazy.force t.exact_result
let exact t = Lazy.force t.exact
let array_space t strategy name = Lazy.force (pick strategy (array t name))
let partitioning_space t strategy = Lazy.force t.spaces.(slot strategy)

let verdict t strategy =
  if uses_exact_analysis strategy && Option.is_none (exact t) then None
  else
    try
      let psi = partitioning_space t strategy in
      Some (Subspace.ambient_dim psi - Subspace.dim psi)
    with _ -> None
