(** Communication-minimal fallback planning.

    The paper's theorems are a yes/no gate: when every partitioning
    space [Ψ] is full-dimensional, the nest is declared sequential and
    the pipeline stops.  This module serves exactly those rejected
    nests.  It enumerates candidate partitioning subspaces from the
    same machinery the theorems use (per-array reference spaces,
    leave-one-out joins, dependence spans, axis subspaces), predicts
    the communication volume of each candidate with a first-touch
    volume estimator, and picks the partition minimizing predicted
    messages — a graceful-degradation tier between "communication-free"
    and "sequential".

    The volume model matches execution exactly: an element's {e home}
    is the PE of the block containing its first access in sequential
    (iteration, statement, write-before-reads) order, and every later
    access from a different PE is one serviced message.  This is the
    same rule {!Cf_exec.Parexec.fallback_homes} uses to place data, so
    for any plan [predicted messages = simulated serviced messages]
    when executed on a machine of the same size.  In particular a
    communication-free nest always yields a zero-volume plan over its
    exact [Ψ] — the fallback tier degrades to the theorem answer.

    Planning reads every space from one {!Cf_core.Facts.t}: the theorem
    spaces and the per-array candidates share its dependences, [Ψ_A]
    and [Ψ^r_A], and {!Cf_pipeline.Pipeline.plan_serve} hands over the
    value it planned with.  Every candidate is scored in one walk of the
    iteration space: each access's element is numbered once, each
    candidate's block ids are streamed by {!Cf_core.Coset.numbering}
    (numbered exactly as {!Cf_core.Coset} numbers them), and
    first-touch homes sit in dense arrays; only the chosen candidate is
    indexed, as an {!Cf_core.Iter_partition.t}.  The per-theorem
    verdicts are not part of a plan: {!verdicts} computes them where
    they are printed or checked. *)

open Cf_core
open Cf_linalg

type estimate = {
  messages : int;  (** [remote_reads + remote_writes] *)
  remote_reads : int;
  remote_writes : int;
  per_block : int array;
      (** messages {e issued} by each block, indexed [block id − 1] *)
}
(** Predicted communication volume of one candidate partition under a
    cyclic block-to-PE placement. *)

type candidate = {
  origin : string;
      (** where the subspace came from: ["theorem-1"], ["psi[A]"],
          ["psi_r[A]"], ["join-minus[A]"], ["flow-span"], ["axis[k]"],
          ["slab[k]"] or ["free"] *)
  space : Subspace.t;
}

type verdict = {
  strategy : Strategy.t;
  parallelism : int option;
      (** [Some 0] = rejected (dim Ψ = n); [None] = analysis skipped
          (exact analysis on too large a space) *)
}
(** One theorem's answer on a nest, as {!verdicts} computes it. *)

type t = {
  nest : Cf_loop.Nest.t;
  nprocs : int;
  comm_free : bool;
      (** Theorem 1 grants parallelism — the plan below is exact and
          has zero predicted volume *)
  choice : candidate;
  partition : Iter_partition.t;  (** [P_Ψ] of [choice] *)
  estimate : estimate;
  ranked : (candidate * estimate) list;
      (** every evaluated candidate, best first (fewest messages, then
          smallest dim, then origin) *)
}

val theorem_number : Strategy.t -> int
(** 1–4, matching the paper. *)

val verdicts : Facts.t -> verdict list
(** One verdict per {!Strategy.all}, in order: {!Facts.verdict}, so a
    minimal theorem is skipped ([None]) on spaces larger than
    {!Cf_dep.Exact.analysis_limit}.  Planning never reads them; the
    callers that print or check them ([cfalloc analyze], [normalize
    --plan], [fallback-vs-seq]) compute them from the analysis value
    they hold. *)

val candidates : ?search_radius:int -> Cf_loop.Nest.t -> candidate list
(** Candidate partitioning subspaces of dimension [< n], deduplicated
    ({!Subspace.equal}, first origin wins): the theorem spaces
    themselves (full-dimensional ones are dropped), per-array [Ψ_A]
    and [Ψ^r_A], leave-one-out joins of the [Ψ_A], the span of the
    flow-dependence witnesses, each axis line and hyperplane slab, and
    the zero space (blockless — every iteration its own block). *)

val estimate : nprocs:int -> Cf_loop.Nest.t -> Subspace.t -> estimate
(** The predicted volume of [P_Ψ] under the cyclic placement on
    [nprocs] PEs, by {!plan}'s one-walk scorer over this one space;
    equal to what the reference scorer [Cf_check.Refpartition.estimate]
    reads over the materialized partition.
    Raises [Invalid_argument] when the subspace's ambient dimension
    differs from the nest depth. *)

val plan : ?search_radius:int -> ?nprocs:int -> Cf_loop.Nest.t -> t
(** The fallback plan ([nprocs] defaults to 4): {!plan_of_facts} over a
    fresh {!Facts.t} of the nest. *)

val plan_of_facts : ?nprocs:int -> Facts.t -> t
(** The fallback plan of the analysis value's nest.  When Theorem 1
    grants parallelism the exact [Ψ] is the single candidate (zero
    volume by construction), otherwise all {!candidates} of the value's
    spaces are scored, in one walk of the iteration space, and ranked.
    No exact analysis runs: the candidates need only the Theorem 1 and
    2 spaces and the per-array ones.  The choice is the best-ranked
    candidate that yields at least two blocks when one exists — a
    single-block "plan" is just sequential execution renamed — and the
    overall best otherwise.  Requires a non-empty iteration space and
    every array uniformly generated (the theorem machinery's own
    precondition); raises [Invalid_argument] otherwise. *)

val relabel : t -> Cf_loop.Nest.t -> t
(** [relabel t nest] re-expresses a fallback plan under the caller's
    names, as {!Cf_pipeline.Pipeline.relabel} does for exact plans:
    [nest] must be [t.nest] modulo renaming ({!Cf_cache.Canon}'s
    condition).  Arrays correspond by position of textual occurrence
    (each statement's write, then its reads), so origins naming an
    array — ["psi[A]"], ["psi_r[A]"], ["join-minus[A]"] — name the
    caller's array; spaces, estimates and the partition's blocks are
    shared untouched.  The ranking is not redone: candidates that tie
    on volume and dimension keep the order their {e old} origins gave
    them, so the relabeled choice can be another candidate than a cold
    {!plan} of [nest] picks — never one of another predicted volume,
    dimension or {!servable} verdict.  Raises [Invalid_argument] when
    the depth or the number of array occurrences differs. *)

val servable : t -> bool
(** The chosen partition has at least two blocks: executing it spreads
    work over more than one PE, so the plan is worth serving. *)

val describe : verdicts:verdict list -> Format.formatter -> t -> unit
(** Human-readable report: the given per-theorem [verdicts] (normally
    {!verdicts} of the analysis value the plan came from), the chosen
    candidate with its predicted volume, and the ranked runner-ups. *)
