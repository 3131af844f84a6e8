(** Closure-specialization of statement bodies — the compiled execution
    backend.

    The interpreters ({!Seqexec}, and {!Parexec}'s per-iteration path)
    re-dispatch on the expression AST, re-resolve array slots and
    re-evaluate [H·i + c] subscripts for every iteration.  This module
    partially evaluates all of that {e once per bind}: array slots,
    scalar values, loop-index positions and the per-operator arithmetic
    are resolved at bind time, each access site becomes one load or
    store closure over whatever memory the caller exposes through a
    {!target}, and each statement compiles to one closure tree
    [int array -> unit] over those accessors.  One statement shape has
    a hand-specialized run kernel: matrix multiplication's
    [C := C + A·B] (the paper's L5), see {!bind_run}.

    The interpreter is retained unchanged as the differential oracle:
    the [compiled-vs-interpreted] property in [cf_check] demands
    bit-for-bit identical runs. *)

open Cf_loop

type backend = [ `Compiled | `Interpreted ]
(** Which statement-body engine an executor should use.  [`Compiled] is
    the default everywhere; [`Interpreted] is the oracle. *)

val backend_name : backend -> string
val backend_of_string : string -> backend option
(** Recognizes ["compiled"] and ["interpreted"]; [None] otherwise. *)

(** One access site: the referenced array's slot (index into
    {!arrays}) and the subscript matrices [H], [c] compiled from the
    textual reference ([element = H·iter + c]). *)
module Site : sig
  type t = private {
    slot : int;
    aref : Aref.t;  (** physically the node inside the statement *)
    h : int array array;
    c : int array;
    shift : int array;
        (** [shift.(p) = q] when subscript [p] is [iter(q) + c.(p)]
            (unit stride), [-1] otherwise *)
  }

  val rank : t -> int
  (** Number of subscripts. *)

  val eval_into : t -> int array -> int array -> unit
  (** [eval_into site iter el] writes the element coordinates into the
      caller's scratch [el] (length {!rank}) — no allocation. *)

  val eval : t -> int array -> int array
  (** Allocating variant of {!eval_into}. *)
end

type stmt_sites = {
  stmt : Stmt.t;
  lhs : Site.t;
  reads : Site.t array;
      (** in [Stmt.reads] order — physically aligned with the [Read]
          nodes of [stmt.rhs] in left-to-right traversal order *)
}

type program
(** A nest with every access site pre-resolved: built once per run and
    shared by allocation, the interpreted hot loop and {!bind}. *)

val make : Nest.t -> program

val arrays : program -> string array
(** Slot order — [Nest.arrays] order (sorted). *)

val slot_of : program -> string -> int
(** Raises [Invalid_argument] for arrays the nest never references. *)

val stmts : program -> stmt_sites array
val max_rank : program -> int
(** Largest subscript arity of any site (0 for an impossible empty
    body); arities above 7 exceed the packed-coordinate fast path. *)

val sites : program -> Site.t array array
(** Every access site of each statement: the lhs first, then the reads
    in {!stmt_sites} order. *)

val scratch : Site.t array array -> int array array array
(** One {!Site.eval_into} buffer per site, sized to its rank. *)

type target = {
  read : int -> int array -> int;
  write : int -> int array -> int -> unit;
  flat : int -> Cf_machine.Machine.flat option;
}
(** The memory a compiled body runs against, keyed by array slot.
    [read slot] and [write slot] are the general accessors: {!bind}
    applies them once per site without a view, so a target resolves
    slots (chunk lookups, …) outside the loop, and at each miss of a
    site with a view; the [int array] element they receive is caller
    scratch and must not be retained.  [flat slot]
    optionally exposes the slot's storage as a live
    {!Cf_machine.Machine.flat} view; sites whose rank matches it read
    and update present elements in place (setting the dirty byte on
    every store) and call [read]/[write] only on a miss (outside the
    box or absent element), so miss behavior — and hence the faulting
    element — is the accessor's.  Targets without such storage return
    [None]. *)

val bind :
  ?keep:(stmt_index:int -> int array -> bool) ->
  ?on_write:(stmt_index:int -> iter:int array -> el:int array -> int -> unit) ->
  scalar:(string -> int) ->
  target:target ->
  program ->
  (int array -> unit)
(** Compile the whole body against [target]: the result executes every
    (surviving) statement instance of one iteration.  Each site's load
    or store is built once: over a flat view of its rank, a rank-1 or
    rank-2 site with unit-stride subscripts ([iter(q) + c] each) inlines
    the hit path with no call, and any other site computes its offset
    from the element; without a view every access goes through
    [read]/[write].  Scalars are evaluated once at bind time (they are
    pure by contract); reads evaluate left to right exactly as
    {!Cf_loop.Expr.eval} does, so a faulting access faults on the same
    element; [Div] is OCaml [( / )] — truncation toward zero, raising
    [Division_by_zero] — matching the interpreter bit for bit.
    [on_write] (the write log of the [Cf_check.Refexec] reference) is
    called after each store with the lhs element in scratch that must
    not be retained. *)

val bind_run :
  ?keep:(stmt_index:int -> int array -> bool) ->
  scalar:(string -> int) ->
  target:target ->
  program ->
  (int array -> unit)
  * (int array -> q:int -> step:int -> count:int -> unit)
(** {!bind} plus a run kernel for {!Cf_core.Coset.iter_block_runs}-style
    batched walks: [(kernel, run)] where [run x ~q ~step ~count]
    executes [count] consecutive iterations in which [x.(q)] advances by
    [step], starting from the iteration vector [x] (restored on
    return).  A lone statement [L := r op1 (s op2 t)] whose four sites
    are rank-2, unit-stride and over rank-2 {!Cf_machine.Machine.flat}
    views (matrix multiplication) gets the one hand-specialized run: it
    marches precomputed flat offsets with the box checks hoisted to the
    run endpoints, replaying individual iterations through [kernel] when
    an element is absent — so faulting and value semantics are
    bit-for-bit those of [kernel] iterated.  Every other body simply
    loops [kernel].  Both are built from one set of accessors. *)

val iter_space : Nest.t -> (int array -> unit) -> unit
(** {!Cf_loop.Nest.iter_space} with the loop bounds compiled to stride
    closures over the outer indices, and the iteration vector passed as
    a reused buffer (the consumer must not retain it). *)

val iter_space_runs :
  Nest.t -> (int array -> q:int -> step:int -> count:int -> unit) -> unit
(** {!iter_space} in runs: every innermost interval is one call in
    {!bind_run}'s run convention ([q] the innermost position, [step]
    1), so a whole-space walk can use the batched run kernels.  The run
    must restore the vector before returning. *)
