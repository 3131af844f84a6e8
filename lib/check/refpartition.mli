(** The materialized reference partition [P_Ψ(I^n)] (Definition 2).

    The independent reference for {!Cf_core.Coset} and its
    {!Cf_core.Iter_partition} view, as {!Refexec} is for the executor,
    with the same block record shape: every iteration is keyed by a
    string of the rationals [c·ī] for the rows [c] of a basis of [Ψ]'s
    orthogonal complement, blocks are materialized in lexicographic
    order of their base points (the first member seen, since iterations
    arrive in lexicographic order), and a member table keyed by the
    iteration answers lookups.  None of the coset machinery — Smith
    and Hermite forms, integer projections, lattice walks — is shared,
    so [coset-parity], [fallback-vs-seq], {!Refexec}, the parity tests
    and bench E14's baseline compare the production index against an
    implementation that does not co-evolve with it.  Meant for
    analysis-scale spaces: it holds every iteration twice. *)

open Cf_linalg

type block = {
  id : int;             (** 1-based, in base-point order *)
  base : int array;     (** lexicographically smallest member *)
  iterations : int array list;  (** lexicographic order *)
}

type t

val make : Cf_loop.Nest.t -> Subspace.t -> t
(** Raises [Invalid_argument] when [Ψ]'s ambient dimension differs from
    the nest depth. *)

val nest : t -> Cf_loop.Nest.t
val space : t -> Subspace.t
val blocks : t -> block array
val block_count : t -> int

val block_of_iteration : t -> int array -> block
(** Raises [Not_found] for an iteration outside the space. *)

val block_id_of_iteration : t -> int array -> int

val max_block_size : t -> int
val min_block_size : t -> int

val pp : Format.formatter -> t -> unit

val estimate : placement:(int -> int) -> t -> Cf_mincomm.Mincomm.estimate
(** The reference scorer: the predicted communication volume of the
    partition under [placement] (block id to PE), by one pass over the
    iteration space in execution order applying the first-touch home
    rule, with this partition's block ids.  Exact for
    {!Cf_exec.Parexec.execute_fallback} on a [`Service]-mode machine
    with the same placement.  {!Cf_mincomm.Mincomm.plan} scores all its
    candidates in one walk over their {!Cf_core.Coset.numbering}s
    instead; [fallback-vs-seq] checks the two agree. *)
