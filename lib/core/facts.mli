(** One memoized analysis per loop nest.

    Theorems 1–4 and the communication-minimal fallback tier all build
    their partitioning spaces from the same per-array pieces (Sec. III):
    the dependences of each array, its reference space [Ψ_A], its
    reduced space [Ψ^r_A] and, for the minimal strategies, the useful
    dependences the exact analysis observes.  A value of type {!t}
    computes each of those pieces — the exact analysis and its useful
    dependences once for all arrays — and the four partitioning spaces
    and theorem verdicts joined from them, lazily and at most once.

    A value is meant to live for one planning call: the planner builds
    one per nest, reads every space it needs from it, and hands it to
    the fallback tier when the theorems reject the nest.  Nothing keeps
    it afterwards — plans and plan caches never hold one.  It is not
    safe to force the same value from two domains at once. *)

open Cf_linalg
open Cf_dep

type strategy =
  | Nonduplicate  (** Theorem 1: single copy of every element *)
  | Duplicate  (** Theorem 2: replication allowed, flow deps only *)
  | Min_nonduplicate  (** Theorem 3: after redundancy elimination *)
  | Min_duplicate  (** Theorem 4: after elimination, flow deps only *)
(** The paper's four partitioning strategies, re-exported as
    {!Strategy.t}.  They are defined here so that one value can memoize
    the space of each. *)

val uses_exact_analysis : strategy -> bool
(** The minimal strategies require the enumeration-based analysis. *)

type t

val make : ?search_radius:int -> ?exact:Exact.result -> Cf_loop.Nest.t -> t
(** [make nest] computes nothing yet.  [search_radius] is the Babai
    radius of every dependence witness search.  [exact], when given, is
    the {!Exact.analyze} result of [nest] and is used instead of running
    the analysis again. *)

val nest : t -> Cf_loop.Nest.t

val deps : t -> string -> Analysis.dep list
(** {!Analysis.deps_of_array} of one array. *)

val exact_result : t -> Exact.result
(** The exact analysis of the nest, run on first use whatever the size
    of the iteration space; raises as {!Exact.analyze} does. *)

val exact : t -> Exact.result option
(** {!exact_result} when the iteration space has at most
    {!Exact.analysis_limit} iterations and the analysis succeeds;
    [None] otherwise. *)

val array_space : t -> strategy -> string -> Subspace.t
(** The per-array space the strategy joins: [Ψ_A]
    ({!Refspace.reference_space}), [Ψ^r_A]
    ({!Refspace.reduced_reference_space}, built from {!deps}), or
    [Ψ^min_A] and [Ψ^min^r_A] over {!exact_result}. *)

val partitioning_space : t -> strategy -> Subspace.t
(** The join of {!array_space} over the nest's arrays, in
    {!Cf_loop.Nest.arrays} order. *)

val verdict : t -> strategy -> int option
(** The strategy's parallelism ([n − dim Ψ]; [Some 0] means the theorem
    rejects the nest).  [None] when the space cannot be computed, and
    for a minimal strategy whenever {!exact} is [None] — even if
    {!exact_result} was supplied or already computed for a larger
    space. *)
