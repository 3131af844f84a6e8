(** Reference spaces of arrays (Definition 4 and its refinements).

    For an array [A] with reference matrix [H_A] and data-referenced
    vectors [r̄_1..r̄_m], the {e reference space} is

    [Ψ_A = span(β ∪ {t̄_1, ..., t̄_m})]

    where [β] is a basis of [Ker(H_A)] over Q and [t̄_j] is a particular
    solution of [H_A·t = r̄_j] admitted only when an integer solution
    exists that is realizable as an in-bounds iteration difference
    (conditions (1) and (2) of Definition 4).  Partitioning the iteration
    space by [Ψ_A] severs no dependence of [A].

    The {e reduced} space (Sec. III.B) keeps only solutions that induce
    flow dependences — with data duplication nothing else forces
    co-location.  The {e minimal} spaces (Sec. III.C) keep only vectors
    of *useful* dependences, i.e. those that survive redundant-computation
    elimination.

    These are the definitions; each call computes its space from
    scratch.  The planner reads them through {!Facts}, which computes
    each space of a nest once, shares each array's dependences between
    the reduced space and the fallback tier, and collects the useful
    dependences once for every array's minimal spaces. *)

open Cf_linalg
open Cf_dep

val reference_space : ?search_radius:int -> Cf_loop.Nest.t -> string -> Subspace.t
(** [Ψ_A] per Definition 4.  Requires uniformly generated references. *)

val reduced_reference_space :
  ?search_radius:int -> Cf_loop.Nest.t -> string -> Subspace.t
(** [Ψ^r_A] per Sec. III.B: [span(∅)] for a fully duplicable array (no
    flow dependence — replication makes every other dependence local);
    for a partially duplicable array, the kernel basis [β] together with
    the particular solutions that lead to flow dependences. *)

val reduced_space_of_deps :
  Cf_loop.Nest.t -> string -> Analysis.dep list -> Subspace.t
(** [Ψ^r_A] from the array's dependences
    ({!Analysis.deps_of_array}): [reduced_reference_space nest name] is
    [reduced_space_of_deps nest name (Analysis.deps_of_array nest name)].
    {!Facts} passes the dependences it already holds. *)

val minimal_reference_space : Exact.result -> string -> Subspace.t
(** [Ψ^min_A]: span of the observed useful dependence vectors (all four
    kinds) after redundancy elimination. *)

val minimal_reduced_reference_space : Exact.result -> string -> Subspace.t
(** [Ψ^min^r_A]: span of the observed useful *flow* dependence vectors. *)

val minimal_space_of_deps :
  ?kinds:Kind.t list ->
  Cf_loop.Nest.t ->
  string ->
  Analysis.dep list ->
  Subspace.t
(** The span of one array's vectors ({!Exact.dep_vectors}) in a list of
    useful dependences: [minimal_reference_space exact name] is
    [minimal_space_of_deps nest name (Exact.useful_deps exact)], and
    [~kinds:[Kind.Flow]] gives [minimal_reduced_reference_space].
    {!Facts} passes the useful dependences it collected once. *)
