(** Closed-form coset indexing of iteration partitions — the
    production partition.

    The paper's partition P_Ψ(Iⁿ) groups iterations whose difference
    lies in the partition subspace Ψ.  This module answers every query
    about it in closed form, so no plan or simulation stores the
    partition:

    - {!block_id_of_iteration} is one integer matrix–vector product
      (O(n²)) plus a hash lookup, via a projection φ : Zⁿ → Zᵐ derived
      from the Smith normal form of a basis of the saturated lattice
      L = Ψ ∩ Zⁿ.  φ(x) = φ(y) iff x and y share a block.
    - {!iter_block} enumerates one block's members on demand from the
      Hermite (echelon) basis of L — exact per-level coefficient
      intervals by floor/ceil division, lexicographic member order, no
      per-iteration storage.

    Construction performs a single streaming pass over the iteration
    space to assign 1-based, base-point-ordered block ids (O(#blocks)
    memory, nothing per-iteration); {!numbering} streams the same ids to
    a caller's own walk without building the index.
    {!Iter_partition} is a view over one index.  Numbering, base points,
    sizes, and member order are bit-for-bit identical to the
    materialized, string-keyed enumerator [Cf_check.Refpartition], the
    independent reference the [coset-parity] oracle and the tests
    compare against. *)

open Cf_linalg
open Cf_loop

type block = { id : int; base : int array; size : int }
(** [id] is 1-based in lexicographic base-point order; [base] is the
    lexicographically least member; [size] the member count. *)

type t

val make : Nest.t -> Subspace.t -> t
(** [make nest psi] builds the index.  Raises [Invalid_argument] when
    the subspace's ambient dimension differs from the nest depth. *)

val numbering : Nest.t -> Subspace.t -> (int array -> int) * (unit -> int)
(** [numbering nest psi] numbers blocks without building the index:
    [(id_of, count)], where [id_of iter], called on the nest's
    iterations in lexicographic order, returns [iter]'s block id exactly
    as {!make} numbers it (by first sight, 1-based), and [count ()] is
    the number of blocks seen so far — {!block_count} once the whole
    space is walked.  [id_of] computes φ into one scratch key, copies it
    only when a new block appears, and does not retain [iter], so a
    walker may hand it a reused buffer.  It does not test membership.
    Raises [Invalid_argument] as {!make} does. *)

val relabel : t -> Nest.t -> t
(** [relabel t nest] is [t] over [nest], which must be [t]'s nest modulo
    renaming ([Cf_cache.Canon]'s condition, so the bounds and the
    iteration space are the same): the projection, lattice, blocks and
    index are shared untouched, in O(1).  Raises [Invalid_argument] when
    the depth differs. *)

val nest : t -> Nest.t
val space : t -> Subspace.t

val block_count : t -> int

val blocks : t -> block list
(** All block descriptors in id order (bases and sizes only — members
    are never materialized; use {!iter_block}). *)

val block : t -> id:int -> block
(** Raises [Invalid_argument] when [id] is outside [1..block_count]. *)

val block_id_of_iteration : t -> int array -> int
(** Closed-form lookup.  Raises [Not_found] for iterations outside the
    iteration space. *)

val block_of_iteration_opt : t -> int array -> int option

val iter_block : ?reuse:bool -> t -> id:int -> (int array -> unit) -> unit
(** Enumerates the block's iterations in lexicographic order without
    materializing them.  Raises [Invalid_argument] on a bad id.  With
    [~reuse:true] the callback receives the walker's scratch array,
    valid only for the duration of the call — the caller must not
    retain or mutate it (default [false]: a fresh array per
    iteration). *)

val iter_block_runs :
  t ->
  id:int ->
  run:(int array -> q:int -> step:int -> count:int -> unit) ->
  (int array -> unit) ->
  unit
(** {!iter_block} with [~reuse:true] semantics, plus run batching: on
    rectangular cosets whose innermost lattice row touches a single
    column [q], each maximal innermost interval is delivered as one
    [run] call instead of [count] leaf calls.  [run] receives the
    walker's scratch vector positioned at the run's {e first} iteration
    and must account for [count] consecutive iterations in which
    [x.(q)] advances by [step]; it may mutate [x.(q)] while working but
    must restore the vector before returning (on an exception the walk
    is abandoned, so no restore is needed).  Iterations that cannot be
    batched arrive through the leaf callback exactly as in
    {!iter_block}. *)

val block_iterations : t -> id:int -> int array list
(** Convenience wrapper over {!iter_block} (materializes one block). *)

val lattice_rank : t -> int
(** Rank of L = Ψ ∩ Zⁿ (0 means every block is a singleton). *)
