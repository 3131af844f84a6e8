(** Sequential reference interpreter.

    Executes a nest in lexicographic order over integer arrays and
    returns the final value of every written element — the golden result
    the parallel executor is validated against. *)

open Cf_loop

type memory = (string * int list, int) Hashtbl.t

val default_init : string -> int array -> int
(** Deterministic pseudo-random initial value of an array element
    (stable across runs, different across elements). *)

val default_scalar : string -> int
(** Deterministic nonzero value of a free scalar. *)

val run :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  Nest.t ->
  memory
(** Final written values.  Reads of never-written elements fall back to
    [init]; loop indices evaluate to their iteration values.

    [backend] (default [`Compiled]) selects the statement-body engine:
    [`Compiled] binds each body once through {!Compile} and runs the
    resulting closures; [`Interpreted] walks the AST per iteration.
    Both produce bit-for-bit identical memories — the
    [compiled-vs-interpreted] oracle in [cf_check] enforces it.  Nests
    whose subscript arity exceeds the packed-coordinate limit (7) fall
    back to the interpreter transparently. *)

val run_filtered :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  keep:(stmt_index:int -> int array -> bool) ->
  Nest.t ->
  memory
(** Like {!run} but skipping statement instances for which [keep] is
    false — used to check that eliminating redundant computations
    preserves the surviving results (Sec. III.C). *)

val lookup : memory -> string -> int array -> int option
val bindings : memory -> (string * int array * int) list
(** Sorted. *)

val equal_on_written : memory -> memory -> bool
(** True when both memories wrote the same elements with equal values. *)
