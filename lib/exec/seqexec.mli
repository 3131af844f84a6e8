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

    [init] must be a pure function of the element: each engine may call
    it any number of times per element (the interpreter calls it on
    every read of a never-written element, the compiled run at most
    once per distinct element, through {!Host}), so only its values are
    part of the contract.

    [backend] (default [`Compiled]) selects the statement-body engine:
    [`Compiled] is {!golden} over fresh host arrays, decoded into a
    memory; [`Interpreted] walks the AST per iteration.  Both produce
    bit-for-bit identical memories — the [compiled-vs-interpreted]
    oracle in [cf_check] enforces it.  Nests whose subscript arity
    exceeds the packed-coordinate limit (7) fall back to the interpreter
    transparently. *)

val golden :
  keep:(stmt_index:int -> int array -> bool) option ->
  scalar:(string -> int) ->
  Compile.program ->
  Nest.t ->
  Host.t ->
  Host.t
(** [golden ~keep ~scalar prog nest host] is the one compiled golden
    run: the body of [prog] (the program of [nest]) bound once through
    {!Compile.bind_run} against a {!Host.copy} of [host] and run over
    the whole space in sequential order, innermost intervals batched.
    Statement instances failing [keep] are skipped.  Returns the copy:
    {!Host.iter_written} lists every cell the run wrote with its final
    value, which is what validation compares.  Reads of elements the
    run has not written take their initial value from the host arrays,
    materialized on first use — so after an executor has gathered its
    copies out of [host], the golden run calls [init] on nothing
    new. *)

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
