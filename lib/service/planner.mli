(** Cache-fronted planning: {!Cf_pipeline.Pipeline.plan} memoized on the
    canonical form of the nest.

    The cache maps (structural digest × strategy × search radius) to the
    completed plan of the {e canonical} nest; a hit is re-labeled back to
    the caller's identifier names with {!Cf_pipeline.Pipeline.relabel},
    so two structurally identical nests that differ only in naming share
    one cache entry and receive answers identical to a cold
    [Pipeline.plan].  The full canonical serialization is stored with
    each entry and compared on hit, so a digest collision degrades to a
    miss instead of a wrong plan.  Domain-safe: the memo cache is locked,
    planning itself runs unlocked.

    Concurrent misses on one key are coalesced (single flight): the
    first plans it, and every later request for the key waits until
    that plan lands, then hits — so the key costs exactly one miss
    however many domains ask at once.  If the leader raises, its
    waiters wake and retry, and one of them leads anew. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached plans (default 1024). *)

val plan :
  ?obs:Cf_obs.Trace.t ->
  ?strategy:Cf_core.Strategy.t ->
  ?search_radius:int ->
  t ->
  Cf_loop.Nest.t ->
  Cf_pipeline.Pipeline.t * bool
(** [(plan, hit)].  On a miss the plan is computed on the canonical nest
    and cached; either way the returned plan carries the caller's
    names.  [obs] receives a [cache-hit]/[cache-miss] instant (tagged
    with the structural digest) and, on a miss, the pipeline's phase
    spans.  Basis overrides are deliberately unsupported here: a custom
    [Ker(Ψ)] basis is caller-specific and would poison shared entries —
    use {!Cf_pipeline.Pipeline.plan} directly for that. *)

val stats : t -> Cf_cache.Memo.stats
val clear : t -> unit
