open Cf_linalg
open Cf_loop

type t = Facts.strategy =
  | Nonduplicate
  | Duplicate
  | Min_nonduplicate
  | Min_duplicate

let all = [ Nonduplicate; Duplicate; Min_nonduplicate; Min_duplicate ]

let to_string = function
  | Nonduplicate -> "nonduplicate"
  | Duplicate -> "duplicate"
  | Min_nonduplicate -> "min-nonduplicate"
  | Min_duplicate -> "min-duplicate"

let pp ppf s = Format.pp_print_string ppf (to_string s)

let uses_exact_analysis = Facts.uses_exact_analysis

let array_space ?search_radius ?exact strategy nest name =
  Facts.array_space (Facts.make ?search_radius ?exact nest) strategy name

let partitioning_space ?search_radius ?exact strategy nest =
  Facts.partitioning_space (Facts.make ?search_radius ?exact nest) strategy

let selective_space ?search_radius nest ~duplicated =
  let facts = Facts.make ?search_radius nest in
  List.fold_left
    (fun acc name ->
      let strategy =
        if List.mem name duplicated then Duplicate else Nonduplicate
      in
      Subspace.join acc (Facts.array_space facts strategy name))
    (Subspace.zero (Nest.depth nest))
    (Nest.arrays nest)

let parallelism_degree psi = Subspace.ambient_dim psi - Subspace.dim psi
