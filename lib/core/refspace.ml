open Cf_linalg
open Cf_loop
open Cf_dep

let kernel_basis nest name =
  let h = Nest.h_matrix nest name in
  let m = Mat.of_rows (Array.to_list (Array.map Vec.of_int_array h)) in
  Mat.kernel m

let reference_space ?search_radius nest name =
  let n = Nest.depth nest in
  let h = Nest.h_matrix nest name in
  let halfwidths = Nest.extent_halfwidths nest in
  let admissible =
    List.filter_map
      (fun r -> Witness.realizable ?search_radius ~h ~halfwidths r)
      (Analysis.data_referenced_vectors nest name)
  in
  Subspace.span n
    (kernel_basis nest name @ List.map Vec.of_int_array admissible)

(* An array without flow dependences is fully duplicable: replication
   makes every other dependence local, so it constrains nothing. *)
let reduced_space_of_deps nest name deps =
  let n = Nest.depth nest in
  let flows =
    List.filter_map
      (fun (d : Analysis.dep) ->
        if Kind.equal d.kind Kind.Flow then Some (Vec.of_int_array d.witness)
        else None)
      deps
  in
  if flows = [] then Subspace.zero n
  else Subspace.span n (kernel_basis nest name @ flows)

let reduced_reference_space ?search_radius nest name =
  reduced_space_of_deps nest name
    (Analysis.deps_of_array ?search_radius nest name)

let minimal_space_of_deps ?kinds nest name deps =
  Subspace.span (Nest.depth nest)
    (List.map Vec.of_int_array (Exact.dep_vectors ?kinds deps name))

let minimal_reference_space exact name =
  minimal_space_of_deps (Exact.nest exact) name (Exact.useful_deps exact)

let minimal_reduced_reference_space exact name =
  minimal_space_of_deps ~kinds:[ Kind.Flow ] (Exact.nest exact) name
    (Exact.useful_deps exact)
