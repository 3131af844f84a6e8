(** Partitioning strategies and their partitioning spaces (Theorems 1–4).

    The partitioning space of a nest is the join of the per-array
    (reduced / minimal) reference spaces; partitioning the iteration
    space by it is communication-free under the corresponding data-copy
    regime.  [dim Ψ = n] means sequential execution; smaller dimensions
    leave [n − dim Ψ] parallel dimensions. *)

open Cf_linalg

type t = Facts.strategy =
  | Nonduplicate      (** Theorem 1: single copy of every element *)
  | Duplicate         (** Theorem 2: replication allowed, flow deps only *)
  | Min_nonduplicate  (** Theorem 3: after redundancy elimination *)
  | Min_duplicate     (** Theorem 4: after elimination, flow deps only *)

val all : t list
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val uses_exact_analysis : t -> bool
(** The minimal strategies require the enumeration-based analysis. *)

val partitioning_space :
  ?search_radius:int -> ?exact:Cf_dep.Exact.result -> t -> Cf_loop.Nest.t ->
  Subspace.t
(** [partitioning_space strategy nest] is [Ψ] of the chosen theorem.
    For the minimal strategies an {!Cf_dep.Exact.result} is computed on
    demand when not supplied (the iteration space must then be small
    enough to enumerate).  Each call reads a fresh {!Facts.t}; callers
    that need several spaces of one nest build one {!Facts.t} and read
    them all from it. *)

val parallelism_degree : Subspace.t -> int
(** [n − dim Ψ], the number of forall dimensions the transformed loop
    will expose. *)

val array_space :
  ?search_radius:int -> ?exact:Cf_dep.Exact.result -> t -> Cf_loop.Nest.t ->
  string -> Subspace.t
(** The per-array space the strategy joins ([Ψ_A], [Ψ^r_A], ...). *)

val selective_space :
  ?search_radius:int -> Cf_loop.Nest.t -> duplicated:string list -> Subspace.t
(** Partial duplication (the L5′ construction of Section IV): arrays in
    [duplicated] contribute their reduced reference spaces [Ψ^r_A], the
    others their full [Ψ_A].  [duplicated = []] is Theorem 1;
    duplicating everything is Theorem 2.  Partitioning by the result is
    communication-free provided the duplicated arrays are actually
    replicated wherever referenced. *)
