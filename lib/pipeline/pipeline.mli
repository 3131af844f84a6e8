(** One-call driver for the whole paper: analysis → partitioning space →
    partition → transformed [forall] nest → processor assignment →
    verified simulated execution.

    This is the facade a compiler front end would call per loop nest;
    the finer-grained modules ({!Cf_core.Strategy},
    {!Cf_transform.Transformer}, {!Cf_exec.Parexec}, ...) remain
    available for custom flows. *)

open Cf_core

type t = {
  nest : Cf_loop.Nest.t;
  strategy : Strategy.t;
  exact : Cf_dep.Exact.result option;
      (** populated iff the strategy eliminates redundant computations *)
  space : Cf_linalg.Subspace.t;  (** the partitioning space Ψ *)
  partition : Iter_partition.t;
  parloop : Cf_transform.Parloop.t;
}

val plan :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Strategy.t ->
  ?basis:int array list ->
  ?search_radius:int ->
  Cf_loop.Nest.t ->
  t
(** [plan nest] runs the full compile-time side under [strategy]
    (default {!Strategy.Nonduplicate}).  The exact analysis and [Ψ] are
    read from one {!Cf_core.Facts.t} built for the call.  [basis]
    overrides the [Ker(Ψ)] basis used for new loop variables (see
    {!Cf_transform.Transformer.transform}).  [obs] (default
    {!Cf_obs.Trace.null}) receives one span per planning phase —
    exact analysis, partitioning-space search, iteration partition,
    loop transform — on the planner lane, timed by the trace's injected
    clock.  {!plan_of_facts} over a fresh {!Cf_core.Facts.t}. *)

val plan_of_facts :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Strategy.t ->
  ?basis:int array list ->
  Facts.t ->
  t
(** {!plan} of the analysis value's nest, reading the exact analysis
    and [Ψ] from that value — the mirror of
    {!Cf_mincomm.Mincomm.plan_of_facts}, so a caller that plans a
    rejected nest's fallback as well analyses the nest once.  The
    value's [search_radius] is the one it was made with. *)

val relabel : t -> Cf_loop.Nest.t -> t
(** [relabel t nest] re-expresses a plan under the caller's identifier
    names: [nest] must be [t.nest] modulo renaming of indices, arrays,
    scalars and statement labels (the canonical-form condition of
    {!Cf_cache.Canon}).  Every numeric component — partitioning space,
    blocks, transform matrices, loop bounds — is shared untouched; only
    embedded nests, reference sites and display names change.  This is
    how a memoized plan computed on the canonical nest is returned to a
    caller that submitted a renamed-but-identical nest. *)

val parallelism : t -> int
(** Number of forall dimensions ([n − dim Ψ]). *)

val block_count : t -> int

val verified : t -> bool
(** Re-checks communication freedom of the plan on the concrete
    iteration space (Theorems 1–4 for this nest). *)

type simulation = {
  report : Cf_exec.Parexec.report;
  balance : Cf_exec.Balance.t;
  makespan : float;
}

val simulate :
  ?backend:Cf_exec.Compile.backend ->
  ?procs:int -> ?cost:Cf_machine.Cost.t -> ?with_distribution:bool -> t ->
  simulation
(** Executes the plan on a simulated [procs]-node machine (default 4)
    with cyclic block placement through the indexed engine
    ({!Cf_exec.Parexec.execute}: block-local copies, block-major over the
    coset index), validating communication freedom and result
    correctness at run time.  With [~with_distribution:true] the initial
    data scatter is charged to the machine — one host message per
    block-local copy, in block order — and shows up in the makespan.
    [backend] (default [`Compiled]) selects the statement-body
    engine. *)

(** {1 Serve-everything planning}

    {!plan} answers the paper's question — is there a
    communication-free partition with parallelism?  {!plan_serve} never
    says no: a rejected nest drops to the communication-minimal tier
    ({!Cf_mincomm.Mincomm}) and comes back as a [Fallback] plan whose
    residual cross-block accesses are serviced as charged messages when
    simulated on a [`Service]-mode machine. *)

type planned =
  | Exact of t  (** the theorems grant parallelism; zero communication *)
  | Fallback of t * Cf_mincomm.Mincomm.t
      (** theorems rejected the nest; the pipeline fields are rebuilt
          around the minimal-communication subspace (the embedded
          [space]/[partition]/[parloop] are the fallback's) *)

val plan_serve :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Strategy.t ->
  ?basis:int array list ->
  ?search_radius:int ->
  ?nprocs:int ->
  Cf_loop.Nest.t ->
  planned
(** [plan], except on parallelism 0: the rejected [Ψ] is neither
    partitioned nor transformed, and the analysis value [plan] read its
    spaces from goes to {!Cf_mincomm.Mincomm.plan_of_facts}, so the
    nest is analysed once per call.  One [fallback-plan] obs span covers
    the candidate search and volume estimation ([nprocs], default 4,
    sizes the placement the volumes are predicted for), and [basis]
    applies to the fallback's transform.  The value is
    dropped when the call returns; the plan does not hold it. *)

val plan_normalized :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Strategy.t ->
  ?basis:int array list ->
  ?search_radius:int ->
  ?nprocs:int ->
  Cf_loop.Nest.t ->
  ( Cf_normalize.Normalize.result * planned,
    Cf_normalize.Normalize.result * string )
  result
(** Normalization front door: run {!Cf_normalize.Normalize.normalize}
    (one obs span per transform phase), then {!plan_serve} on the
    normalized nest.  [Error] carries the normalization result (with
    its per-transform diagnostics) and the reason planning is still
    impossible — an aliased non-uniform reference, an empty iteration
    space.  Callers that want the witness checked run
    {!Cf_normalize.Normalize.check} on the returned result. *)

val pipeline_of : planned -> t
val fallback_of : planned -> Cf_mincomm.Mincomm.t option

val simulate_serve :
  ?backend:Cf_exec.Compile.backend ->
  ?procs:int ->
  ?cost:Cf_machine.Cost.t ->
  ?comm_mode:Cf_machine.Machine.comm_mode ->
  ?with_distribution:bool ->
  planned ->
  simulation
(** [Exact] plans run exactly as {!simulate}.  [Fallback] plans run
    through {!Cf_exec.Parexec.execute_fallback} on a machine in
    [comm_mode] (default [`Service] — remote accesses become charged
    messages; [`Strict] reproduces the abort-on-remote-access
    behavior); [procs] defaults to the fallback planner's [nprocs], the
    size its volume prediction is exact for.  Serviced-message counters
    live on [report.machine]
    ({!Cf_machine.Machine.serviced_messages}). *)

val describe : Format.formatter -> t -> unit
(** Human-readable summary: per-array spaces, Ψ, block statistics, and
    the transformed loop. *)
