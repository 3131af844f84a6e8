(** Closure-specialization of statement bodies — the compiled execution
    backend.

    The interpreters ({!Seqexec}, and {!Parexec}'s per-iteration path)
    re-dispatch on the expression AST, re-resolve array slots and
    re-evaluate [H·i + c] subscripts for every iteration.  This module
    partially evaluates all of that {e once per block}: array slots,
    scalar values, loop-index positions and the per-operator arithmetic
    are resolved at bind time, subscripts become precomputed stride
    closures (with the common rank-1/rank-2 single-index shapes folded
    to straight-line adds), and the statement body compiles to one flat
    OCaml closure [int array -> unit] over whatever memory the caller
    exposes through a {!target}.

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

type flat = {
  f_lo : int array;
  f_extents : int array;
  f_data : int array;
  f_present : Bytes.t;
  f_dirty : Bytes.t;
}
(** A live row-major view of one array's storage: element [el] sits at
    offset [Σ (el.(p) − f_lo.(p))·stride(p)] and is present iff its
    [f_present] byte is nonzero.  Every compiled store to [f_data] also
    sets the matching [f_dirty] byte, feeding the target machine's
    write journal (delta checkpoints would otherwise miss raw-buffer
    writes). *)

type target = {
  reader : int -> int array -> int;
  reader1 : int -> int -> int;
  reader2 : int -> int -> int -> int;
  writer : int -> int array -> int -> unit;
  writer1 : int -> int -> int -> unit;
  writer2 : int -> int -> int -> int -> unit;
  flat : int -> flat option;
}
(** Accessor factories over the memory the compiled closure runs
    against, keyed by array slot.  Each factory is applied once per
    site at {!bind} time and returns the per-iteration accessor, so a
    target resolves slots (chunk lookups, name interning, …) outside
    the loop.  The [int array] element passed to [reader]/[writer] is
    caller scratch and must not be retained.  [reader1]/[reader2] (and
    the writers) are the allocation-free rank-1/rank-2 fast paths; a
    rank mismatch must fail exactly like the general accessor.

    [flat] optionally exposes the slot's storage as a {!flat} view of
    matching rank; when present, rank-1/rank-2 sites with unit-stride
    subscripts compile to zero-call inline accesses, falling back to
    the bound accessor only on miss (out of box or absent element), so
    miss behavior — and hence the faulting element — is unchanged.
    Targets without such storage return [None] ({!bind} then uses the
    accessor closures everywhere). *)

val bind :
  ?keep:(stmt_index:int -> int array -> bool) ->
  ?on_write:(stmt_index:int -> iter:int array -> el:int array -> int -> unit) ->
  scalar:(string -> int) ->
  target:target ->
  program ->
  (int array -> unit)
(** Compile the whole body against [target]: the result executes every
    (surviving) statement instance of one iteration.  Scalars are
    evaluated once at bind time (they are pure by contract); reads
    evaluate left to right exactly as {!Cf_loop.Expr.eval} does, so a
    faulting access faults on the same element; [Div] is OCaml [( / )]
    — truncation toward zero, raising [Division_by_zero] — matching the
    interpreter bit for bit.  [on_write] (the write log of the
    [Cf_check.Refexec] reference) receives the lhs element in scratch
    that must not be retained; when absent, rank-1/rank-2 writes skip
    element materialization entirely and the fused shapes apply. *)

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
    return).  For a single fused statement over {!flat} rank-2 sites the
    run marches precomputed flat offsets with the box checks hoisted to
    the run endpoints, replaying individual iterations through the
    scalar kernel when an element is absent — so faulting and value
    semantics are bit-for-bit those of [kernel] iterated; every other
    body shape simply loops [kernel]. *)

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
