(** Normalized [n]-nested loops (the paper's Section II model).

    Level [k]'s bounds are affine expressions in the indices of levels
    [0..k-1]; the step is 1.  The loop body is a straight-line sequence of
    assignment statements executed for every iteration in lexicographic
    order. *)

type level = { var : string; lower : Affine.t; upper : Affine.t }

type bounds_decl = (int * int) array
(** Per-dimension inclusive [lo, hi] ranges of a declared array, the
    paper's [A[0:8, 0:4]] notation. *)

type t = private {
  levels : level array;
  body : Stmt.t list;
  declarations : (string * bounds_decl) list;
      (** optional array-bounds declarations, for display and checking *)
}

val make :
  ?declarations:(string * bounds_decl) list -> level list -> Stmt.t list -> t
(** Validates the nest: at least one level, distinct index names, bounds
    of level [k] only mention indices of levels before [k], every
    subscript affine in the nest indices, a non-empty body, and
    declarations with [lo <= hi] matching the arity of the array's
    references.  Raises [Invalid_argument] otherwise. *)

val rectangular :
  ?declarations:(string * bounds_decl) list ->
  (string * int * int) list -> Stmt.t list -> t
(** [rectangular [(i, lo, hi); ...] body] builds a constant-bound nest. *)

val declared_bounds : t -> string -> bounds_decl option

val out_of_bounds_accesses : t -> (string * int array) list
(** Elements referenced by some iteration but outside the array's
    declared bounds (empty for undeclared arrays); sorted, deduplicated. *)

val depth : t -> int
val indices : t -> string array

val iter_space : t -> (int array -> unit) -> unit
(** Enumerates iterations in lexicographic order.  Empty ranges at any
    level yield no iterations below them. *)

val iterations : t -> int array list

val cardinal : t -> int
(** The number of iterations.  O(depth) for rectangular nests — the
    product of the level extents, 0 when any level is empty, saturating
    at [max_int]; other nests are enumerated. *)

val mem : t -> int array -> bool
(** [mem t iter] decides membership of [iter] in the iteration space by
    evaluating the affine bounds level by level — O(n) for rectangular
    nests, no enumeration ever. *)

val bounding_box : t -> (int array * int array) option
(** Inclusive per-dimension [lo, hi] ranges enclosing the iteration
    space, or [None] when the space is empty.  Exact constants for
    rectangular nests; computed by enumeration otherwise (non-rectangular
    nests are analysis-scale). *)

val is_rectangular : t -> bool

val extent_halfwidths : t -> int array
(** [extent_halfwidths l] bounds the iteration-difference box: component
    [k] is an upper bound on [|i_k - i'_k|] over iterations [i, i'].  For
    rectangular nests this is exactly [u_k - l_k]; otherwise a
    conservative bound from enumeration (small spaces) or constant parts. *)

val arrays : t -> string list
(** Names of all referenced arrays, sorted. *)

type access = Write | Read

type ref_site = {
  access : access;
  stmt_index : int;  (** position of the statement in the body, 0-based *)
  site_index : int;  (** 0 for the write; 1.. for reads, textual order *)
  aref : Aref.t;
}

val sites_of_array : t -> string -> ref_site list
(** Every textual occurrence of the array, statement by statement, the
    write site first within each statement. *)

val distinct_refs : t -> string -> (int array array * int array) list
(** The distinct [(H, c)] pairs for the array, textual order of first
    occurrence. *)

val uniformly_generated : t -> string -> bool
(** True when all references to the array share one [H] (the paper's
    admissibility condition). *)

val all_uniformly_generated : t -> bool

val h_matrix : t -> string -> int array array
(** The common reference matrix [H] of a uniformly generated array.
    Raises [Invalid_argument] when references disagree. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering with [for]/[end]. *)
