(** Cache-fronted planning: {!Cf_pipeline.Pipeline.plan} memoized on the
    canonical form of the nest, together with the nest's fallback plan.

    The cache maps (structural digest × strategy × search radius) to the
    completed plan of the {e canonical} nest; a hit is re-labeled back to
    the caller's identifier names with {!Cf_pipeline.Pipeline.relabel},
    so two structurally identical nests that differ only in naming share
    one cache entry and receive answers identical to a cold
    [Pipeline.plan].  The full canonical serialization is stored with
    each entry and compared on hit, so a digest collision degrades to a
    miss instead of a wrong plan.  Domain-safe: the memo cache is locked,
    planning itself runs unlocked.

    {b Fallback tier.}  A request with [serve] on a nest the theorems
    reject also wants the communication-minimal plan
    ({!Cf_mincomm.Mincomm}).  It lives in the same entry, so [plan] and
    [plan_serve] of one nest share it: the first [serve] request plans
    the fallback on the canonical nest, under the entry's search radius,
    and every later one gets it relabeled with
    {!Cf_mincomm.Mincomm.relabel}.  A fallback answer therefore equals
    a cold [Pipeline.plan_serve] of the {e canonical} nest, relabeled to
    the caller's names — same predicted volume, dimension and
    servability as a cold plan of the caller's nest, though candidates
    tied on both may be ranked in the canonical names' order (see
    {!Cf_mincomm.Mincomm.relabel}).  An entry keeps one fallback, for
    the [nprocs] it was planned for; a request for another size plans
    anew and replaces it.

    Concurrent work on one key is coalesced (single flight), fresh plan
    and fallback alike: the first request plans it, and every later
    request for the key waits until that work lands, then hits — so
    the key costs exactly one miss and at most one fallback per
    [nprocs] however many domains ask at once.  A request without
    [serve] needs no fallback: while one is being planned for its key
    it hits at once.  If the leader raises, its waiters wake and retry,
    and one of them leads anew. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached plans (default 1024). *)

type answer = {
  plan : Cf_pipeline.Pipeline.t;  (** under the caller's names *)
  fallback : Cf_mincomm.Mincomm.t option;
      (** with [serve] on a plan of parallelism 0: the canonical nest's
          fallback, relabeled to the caller's names; [None] otherwise *)
  canon : Cf_cache.Canon.t;  (** the canonical form that keyed the cache *)
  hit : bool;  (** the exact plan came from the cache *)
  fallback_planned : bool;
      (** this call planned the fallback (a fallback miss) *)
}

val plan :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?serve:int ->
  t ->
  Cf_loop.Nest.t ->
  answer
(** Plan [nest] through the cache.  On a miss the plan is computed on
    the canonical nest and cached; [serve = Some nprocs] also fetches
    (or on first request computes and caches) the fallback for a cyclic
    placement on [nprocs] PEs when the plan has parallelism 0.  Either
    way the returned plans carry the caller's names.  The canonical form
    is computed once per call and returned.  A miss that plans both
    tiers analyses the canonical nest once ({!Cf_core.Facts.t} shared by
    {!Cf_pipeline.Pipeline.plan_of_facts} and
    {!Cf_mincomm.Mincomm.plan_of_facts}); filling the fallback into an
    existing entry analyses it afresh.  [obs] receives a
    [cache-hit]/[cache-miss] instant (tagged with the structural digest)
    and the pipeline's phase spans of whatever is planned, the fallback
    as one [fallback-plan] span.  Basis overrides are deliberately
    unsupported here: a custom [Ker(Ψ)] basis is caller-specific and
    would poison shared entries — use {!Cf_pipeline.Pipeline.plan}
    directly for that. *)

val uncached :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  ?serve:int ->
  Cf_loop.Nest.t ->
  answer
(** {!plan} without a cache: both plans are planned on [nest] itself,
    from one analysis, so no relabeling is involved; [canon] is still
    computed, once, and [hit] is false. *)

val stats : t -> Cf_cache.Memo.stats
val clear : t -> unit
