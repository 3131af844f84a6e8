(** Iteration partitions [P_Ψ(I^n)] (Definition 2).

    Iterations [ī], [ī'] share a block iff [ī − ī' ∈ Ψ]; blocks are
    numbered in lexicographic order of their base points (the paper's
    [B_1..B_q]).  A partition is a view over one {!Coset} index: {!make}
    builds it in one streaming pass (O(#blocks) memory, nothing per
    iteration), counts, sizes and lookups read it in closed form, and
    the block records of {!blocks}, {!block_of_iteration} and {!pp} are
    enumerated from it on every call — nothing is cached, so the value
    is immutable and safe to share across domains.  The parity oracles
    compare it against the materialized, string-keyed enumerator
    [Cf_check.Refpartition]. *)

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

val coset : t -> Coset.t
(** The index the view reads; {!Cf_exec.Parexec} runs on it. *)

val relabel : t -> Cf_loop.Nest.t -> t
(** [relabel t nest] is [t] with the embedded nest replaced — for
    returning a memoized partition under the caller's identifier names.
    [nest] must be the same nest modulo renaming (the index is shared
    untouched, {!Coset.relabel}); only the depth is checked.  Raises
    [Invalid_argument] on a depth mismatch. *)

val nest : t -> Cf_loop.Nest.t
val space : t -> Subspace.t

val blocks : t -> block array
(** Every block with its members, enumerated afresh on each call
    (O(iterations)): call it once per use. *)

val block_count : t -> int

val block_of_iteration : t -> int array -> block
(** Raises [Not_found] for an iteration outside the space. *)

val block_id_of_iteration : t -> int array -> int
(** Closed-form lookup; raises [Not_found] outside the space. *)

val max_block_size : t -> int
val min_block_size : t -> int

val pp : Format.formatter -> t -> unit
