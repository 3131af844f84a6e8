(** Concurrent batch-allocation service: a worker pool of OCaml domains
    turning loop nests into communication-free plans.

    Requests enter a bounded submission queue (backpressure: a full
    queue rejects — {!submit} returns an already-resolved {!Rejected}
    ticket — while {!plan_many} blocks for space instead).  Worker
    domains pop requests, honor per-request deadlines (a request whose
    deadline passed before a worker reached it completes as
    {!Timed_out}), and plan through a shared {!Planner} cache, so
    structurally identical nests are planned once and re-labeled per
    caller.  Planning is deterministic, so every answer is identical to
    a direct sequential {!Cf_pipeline.Pipeline.plan} of the same request
    regardless of concurrency.  A request with [serve] (the server's
    [plan_serve]) also gets the fallback tier's plan of a rejected nest,
    planned inside the worker and cached in the same entry: the request
    holds its queue slot while the fallback is planned, but its deadline
    is checked only before planning starts, so a started request runs
    to completion, fallback included.

    Lifecycle: {!create} spawns the domains; {!drain} waits for quiet;
    {!shutdown} closes the queue, lets the workers finish what is
    already queued, and joins them ({!submit} afterwards returns
    {!Rejected}).  {!stats} snapshots throughput, a latency histogram
    (p50/p95/p99 of completed requests, submission to completion), cache
    counters and the queue-depth high-water mark.

    Self-healing: every worker domain runs under a supervisor that
    replaces it if it dies while the service is open ({!health} counts
    crashes and restarts; {!inject_worker_crash} kills one worker on
    purpose for testing).  A per-strategy circuit breaker trips after
    repeated planner failures and fast-fails that strategy's requests
    ({!Tripped}) for a fixed budget before half-opening on a single
    probe.  {!plan_retry} retries {!Rejected} submissions with bounded
    exponential backoff. *)

type t

type completion = {
  plan : Cf_pipeline.Pipeline.t;
  fallback : Cf_mincomm.Mincomm.t option;
      (** the fallback tier's plan when the request asked for it
          ([serve]) and the theorems rejected the nest — see
          {!Planner.plan} for its contract *)
  canon : Cf_cache.Canon.t;
      (** the request's canonical form (its cache key), computed once by
          the worker, cache on or off *)
  cache_hit : bool;  (** the exact plan came from the cache *)
  fallback_planned : bool;
      (** this request's worker ran {!Cf_mincomm.Mincomm.plan} *)
  latency : float;  (** submission → completion, seconds *)
}

type outcome =
  | Done of completion
  | Failed of string  (** the planner raised (e.g. non-affine nest) *)
  | Rejected  (** queue full at submission, or service shut down *)
  | Timed_out  (** deadline expired before a worker started the request *)
  | Tripped
      (** the strategy's circuit breaker is open — fast-failed without
          touching the planner *)

val pp_outcome : Format.formatter -> outcome -> unit

type ticket
(** A pending request; {!await} blocks until its outcome is known. *)

type breaker_config = {
  failure_threshold : int;
      (** consecutive planner failures that trip the breaker (>= 1) *)
  open_budget : int;
      (** requests fast-failed while open before a half-open probe
          (>= 1) *)
}

val default_breaker : breaker_config
(** 5 consecutive failures to trip, 16 fast-fails before the probe. *)

val create :
  ?domains:int ->
  ?queue_depth:int ->
  ?cache:int option ->
  ?breaker:breaker_config option ->
  ?obs:Cf_obs.Trace.t ->
  unit ->
  t
(** [domains] worker domains (default
    [Domain.recommended_domain_count ()], min 1, capped at 64);
    [queue_depth] bounds the submission queue (default 64, min 1);
    [cache] is the plan-cache capacity — [Some n] entries (default
    [Some 1024]), [None] disables caching entirely; [breaker]
    configures the per-strategy circuit breaker (default
    [Some default_breaker], [None] disables it); [obs] (default
    {!Cf_obs.Trace.null}) receives per-request spans on the planner
    lane: queue wait, cache hit/miss instants, the pipeline's planning
    phases, and a completion mark tagged with the outcome and cache
    hit — all timed by the trace's injected clock. *)

val submit :
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?serve:int ->
  ?timeout:float ->
  t ->
  Cf_loop.Nest.t ->
  ticket
(** Non-blocking: a full (or closed) queue yields a ticket already
    resolved to {!Rejected}.  [serve = Some nprocs] asks for the
    fallback plan of a rejected nest, for a cyclic placement on
    [nprocs] PEs ({!completion.fallback}).  [timeout] is a relative
    deadline in seconds ([<= 0] means already expired). *)

val await : ticket -> outcome

val plan_one :
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?serve:int ->
  ?timeout:float ->
  t ->
  Cf_loop.Nest.t ->
  outcome
(** [submit] + [await]. *)

val plan_many :
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?timeout:float ->
  t ->
  Cf_loop.Nest.t list ->
  outcome list
(** Batch submission: enqueues every nest — blocking for queue space
    rather than rejecting, so arbitrarily large batches flow through the
    bounded queue — then awaits all outcomes, in input order.  Nests
    enqueued after {!shutdown} closes the queue come back {!Rejected}. *)

val retry_delay : ?backoff:float -> ?jitter:float -> Cf_fault.Rng.t -> int -> float
(** [retry_delay rng attempt] is the sleep {!plan_retry} takes after the
    given 1-based attempt: [backoff · 2^(attempt−1) · (1 + jitter·u)]
    seconds with [u] drawn uniformly from [\[0, 1)] off [rng], capped at
    100ms.  Exposed so tests can assert the exact schedule for a pinned
    seed. *)

val plan_retry :
  ?max_attempts:int ->
  ?backoff:float ->
  ?jitter:float ->
  ?jitter_seed:int ->
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?timeout:float ->
  t ->
  Cf_loop.Nest.t ->
  outcome
(** {!plan_one} that retries {!Rejected} outcomes (queue full) up to
    [max_attempts] times (default 5, must be >= 1), sleeping
    {!retry_delay} between attempts — exponential backoff (default
    [backoff] 1ms, capped at 100ms per attempt) stretched by up to
    [jitter] (default 0.1, i.e. +10%) of seeded pseudo-randomness so
    concurrent retriers decorrelate instead of re-colliding in lockstep.
    [jitter_seed] pins the {!Cf_fault.Rng} stream for deterministic
    tests; by default each call seeds itself from the clock and domain.
    Retrying stops immediately once the service is shut down — those
    rejections are permanent.  Any other outcome is returned as-is. *)

val warm :
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?serve:int ->
  t ->
  Cf_loop.Nest.t ->
  bool
(** Plan [nest] synchronously on the {e caller's} thread through the
    shared plan cache, bypassing the submission queue, deadlines and the
    circuit breaker; [serve] also fills the entry's fallback.  Returns
    [false] when the cache is disabled or the planner rejects the nest
    (nothing is raised).  This is how a server
    replaying its plan journal re-warms the cache at boot without
    contending with live traffic. *)

val inject_worker_crash : t -> unit
(** Fault injection for tests: the next worker to look at the queue
    raises instead, {e before} popping a job (no accepted request is
    lost).  While the service is open the supervisor restarts the
    worker; after {!shutdown} the death is only recorded.  See
    {!health}. *)

val drain : t -> unit
(** Block until the queue is empty and no request is in flight.  Safe
    to call at any time, from several callers, and again after
    {!shutdown}. *)

val shutdown : t -> unit
(** Close the queue, finish already-accepted work, join the worker
    domains.  Idempotent. *)

(** {1 Health} *)

type breaker_state =
  | Breaker_closed of int  (** consecutive planner failures so far *)
  | Breaker_open of int  (** fast-fails left before the half-open probe *)
  | Breaker_half_open  (** single probe in flight *)

type breaker_snapshot = {
  strategy : Cf_core.Strategy.t;
  state : breaker_state;
  trips : int;  (** closed → open transitions so far *)
}

type health = {
  ready : bool;  (** open for submissions with at least one live worker *)
  live_domains : int;
  total_domains : int;
  worker_crashes : int;
  worker_restarts : int;
  retried : int;  (** {!plan_retry} re-submissions *)
  breaker_states : breaker_snapshot list;
      (** one per strategy, [[]] when the breaker is disabled *)
}

val health : t -> health
val pp_health : Format.formatter -> health -> unit

type stats = {
  domains : int;
  submitted : int;
  completed : int;
  rejected : int;
  timed_out : int;
  failed : int;
  tripped : int;  (** fast-failed by an open circuit breaker *)
  queue_depth : int;  (** current *)
  in_flight : int;  (** currently being planned *)
  queue_hwm : int;  (** queue-depth high-water mark *)
  uptime : float;  (** seconds since {!create} *)
  throughput : float;  (** completed requests per second of uptime *)
  latency : Cf_obs.Histogram.summary;  (** completed requests only *)
  cache : Cf_cache.Memo.stats option;  (** [None] when cache disabled *)
  health : health;  (** liveness/breaker snapshot, same instant *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
