(** Exact (enumeration-based) dependence and redundancy analysis.

    The nest's finite iteration space is executed abstractly in
    lexicographic order, recording for every array element the time-ordered
    sequence of write and read events.  From those timelines we obtain:

    - the paper's *redundant computations* (Sec. III.C) by the two-case
      fixpoint: a write is redundant when, before the next write to the
      same element, it is read by nothing — or only by computations that
      are themselves redundant;
    - the sets [N(S_k)] of iterations whose instance of statement [S_k]
      is not redundant;
    - the *useful* dependences: element-level dependence pairs between
      non-redundant computations, each with its observed iteration
      difference vector — precisely the vectors that span the minimal
      (reduced) reference spaces of Theorems 3 and 4;
    - unfiltered dependence pairs, for cross-validating the symbolic
      classifier of {!Analysis} on small loops.

    Input dependences are reported between consecutive reads of an
    element only; arbitrary read pairs are linear combinations of those,
    so spans are unaffected. *)

open Cf_loop

type computation = { stmt_index : int; iter : int array }

type result

val analysis_limit : int
(** Largest iteration space (100,000 iterations) callers run {!analyze}
    on by default: beyond it the minimal strategies, exact verification
    and materialized partitions are flagged as likely too slow
    ([Diagnose]) and skipped when ranking fallback candidates
    ([Mincomm]). *)

val analyze : ?max_events:int -> Nest.t -> result
(** Raises [Invalid_argument] when the abstract execution would produce
    more than [max_events] (default 2_000_000) reference events. *)

val nest : result -> Nest.t

val relabel : result -> Nest.t -> result
(** [relabel r nest] re-expresses a memoized analysis under the caller's
    identifier names: [nest] must be [nest r] modulo renaming of
    indices, arrays, scalars and labels (same shape position by
    position).  Reference sites are re-pointed at [nest]'s statements
    and element timelines re-keyed by the renamed array names; all
    numeric content (computations, redundancy marks, iteration vectors)
    is shared untouched.  Raises [Invalid_argument] when the statement
    or read-site counts disagree. *)

val redundant_computations : result -> computation list
(** In execution order. *)

val is_redundant : result -> stmt_index:int -> int array -> bool

val n_set : result -> int -> int array list
(** [n_set r k] is [N(S_k)]: iterations (lexicographic order) whose
    instance of the [k]-th body statement survives elimination. *)

val useful_deps : result -> Analysis.dep list
(** Deduplicated site-level dependences between non-redundant
    computations; [witness] carries the observed iteration difference. *)

val all_deps : result -> Analysis.dep list
(** Same, without the redundancy filter. *)

val dep_vectors :
  ?kinds:Kind.t list -> Analysis.dep list -> string -> int array list
(** The distinct [witness] vectors of one array's dependences in a list,
    in first-seen order, optionally restricted to the given kinds
    (default: all four).  Over {!useful_deps} they are the observed
    useful dependence vectors that span the minimal spaces; callers
    that need several arrays' vectors collect {!useful_deps} once. *)

type access_event = {
  stmt_index : int;
  iter : int array;
  access : Nest.access;
  redundant : bool;  (** computation marked redundant by the fixpoint *)
}

val timelines : result -> ((string * int array) * access_event list) list
(** Per-element access timelines in execution order, one entry per array
    element ever touched.  The driver for partition verification. *)

val pp_summary : Format.formatter -> result -> unit
