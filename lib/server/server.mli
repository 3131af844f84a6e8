(** The long-lived planning server: sockets, the journaled plan store,
    admission control and the stats surface, glued into one process.

    A server owns one {!Cf_service.Service.t} worker pool and listens on
    a Unix-domain socket, a TCP socket, or both.  Each connection gets a
    thread running the framed JSON protocol ({!Frame}, {!Protocol}):
    clients must open with a [hello] handshake (protocol-version check,
    tenant binding) and may then pipeline [plan]/[plan_serve]/[stats]/
    [health] requests.  Reads are bounded by [read_timeout] and frames
    by [max_frame]; a peer announcing an oversized frame is told so and
    disconnected before any payload is buffered.

    Fallback tier: a [plan_serve] request of a theorem-rejected nest
    is answered from the fallback plan in the nest's cache entry
    ({!Cf_service.Planner.plan}), planned once per entry for
    [nprocs] inside the service worker while the request holds its
    queue slot (its [timeout] is checked only before planning starts),
    and relabeled to the caller's names on every reply.
    [stats] counts [server.fallback_planned] against
    [server.fallback_served].

    Crash safety: when [journal] is set, every cache-miss plan appends a
    logical record — canonical digest, strategy, search radius, and the
    canonical nest source — to an append-only CRC-framed {!Journal}; the
    first fallback planned on an entry appends the entry's record again
    with the [nprocs] it was planned for.  On boot the journal is
    replayed and each record re-planned through
    {!Cf_service.Service.warm} (planning is deterministic, so replay
    rebuilds byte-identical plans; a record's fallback is re-planned
    when its [nprocs] is this server's), which makes cache warmth
    survive [kill -9]: fully committed records become cache hits, torn
    tails are truncated and counted, and boot never fails on a corrupt
    tail.  A background thread compacts the journal (latest record per
    key, streamed) once it grows past [journal_max_bytes] and past twice
    its size after the previous compaction.

    Admission: every [plan] request passes the per-tenant
    {!Admission} gate before touching the service queue — token-bucket
    rate limits, priority load-shedding and weighted-fair slots, so
    accepted-request latency stays bounded while overload sheds the
    lowest-priority tenants first.  Decisions, latencies and journal
    activity are tracked in a {!Cf_obs.Metrics} registry exposed via
    [stats], and a sampled fraction of requests emit spans to [trace]. *)

type config = {
  unix_socket : string option;  (** path; any stale socket is replaced *)
  tcp : (string * int) option;  (** host, port (0 = kernel-assigned) *)
  domains : int option;  (** worker domains, [None] = library default *)
  queue_depth : int;
  cache : int option;  (** plan-cache capacity; [None] disables *)
  journal : string option;  (** plan-store path; [None] = in-memory only *)
  fsync_every : int;
  journal_max_bytes : int;  (** compaction threshold *)
  max_frame : int;
  read_timeout : float;  (** per-read [SO_RCVTIMEO], seconds *)
  admit_capacity : int;  (** outstanding admitted plan requests *)
  shed_start : float;  (** occupancy where load-shedding begins *)
  tenants : Admission.tenant list;
  tenants_file : string option;
      (** tenant-spec file (one [--tenant] spec per line, [#] comments);
          read at boot and re-read by the [reload] protocol op /
          {!reload_tenants} — [tenants] is ignored while set *)
  nprocs : int;
      (** placement size the fallback tier plans and caches for *)
  trace : Cf_obs.Trace.t;
  trace_sample : float;  (** fraction of requests traced, 0..1 *)
  trace_seed : int;  (** seeds the sampling stream *)
}

val default_config : config
(** No listeners, no journal: queue depth 64, cache 1024, fsync every 8
    appends, compaction at 4 MiB, 1 MiB frames, 30s read timeout,
    admission capacity 8, shedding from occupancy 0.5, nprocs 4, no
    tracing.  Callers set at least one of [unix_socket]/[tcp]. *)

type replay_report = {
  entries : int;  (** committed journal records found *)
  warmed : int;  (** records that re-planned into the cache *)
  bad_entries : int;  (** records that no longer parse or plan *)
  skipped_bytes : int;  (** torn/corrupt tail bytes truncated *)
  truncated : bool;
}

type t

val start : config -> t
(** Boot: open (and replay) the journal, create the service, bind and
    listen, spawn the accept and compaction threads.  Raises
    [Invalid_argument] on a config with no listener or out-of-range
    knobs, [Unix.Unix_error] when binding fails. *)

val replay_report : t -> replay_report
(** What the boot-time journal replay recovered. *)

val port : t -> int option
(** The bound TCP port, for [tcp = Some (host, 0)] setups. *)

val stats_json : t -> Cf_obs.Json.t
(** The same document served to [stats] requests: service counters and
    latency summary, admission per-tenant decisions, journal activity,
    and the raw metrics registry. *)

val compact_now : t -> unit
(** Force one journal compaction (no-op without a journal). *)

val reload_tenants : t -> (int, string) result
(** Hot-reload the tenant table into admission control — re-read
    [tenants_file] (or fall back to the static [tenants] list) and
    {!Admission.reconfigure} without dropping live connections or
    in-flight requests.  [Ok n] is the number of tenant specs applied;
    [Error] (unreadable file, bad spec line) leaves the previous table
    untouched.  Also triggered by the [reload] protocol op; callers may
    wire it to SIGHUP. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, wake and join every connection
    thread, drain the service, sync and close the journal.  Idempotent. *)
