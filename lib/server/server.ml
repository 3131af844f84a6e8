module Json = Cf_obs.Json
module Metrics = Cf_obs.Metrics
module Trace = Cf_obs.Trace
module Service = Cf_service.Service

type config = {
  unix_socket : string option;
  tcp : (string * int) option;
  domains : int option;
  queue_depth : int;
  cache : int option;
  journal : string option;
  fsync_every : int;
  journal_max_bytes : int;
  max_frame : int;
  read_timeout : float;
  admit_capacity : int;
  shed_start : float;
  tenants : Admission.tenant list;
  tenants_file : string option;
  nprocs : int;
  trace : Trace.t;
  trace_sample : float;
  trace_seed : int;
}

let default_config =
  {
    unix_socket = None;
    tcp = None;
    domains = None;
    queue_depth = 64;
    cache = Some 1024;
    journal = None;
    fsync_every = 8;
    journal_max_bytes = 4 lsl 20;
    max_frame = Frame.default_max_frame;
    read_timeout = 30.;
    admit_capacity = 8;
    shed_start = 0.5;
    tenants = [];
    tenants_file = None;
    nprocs = 4;
    trace = Trace.null;
    trace_sample = 0.;
    trace_seed = 1;
  }

type replay_report = {
  entries : int;
  warmed : int;
  bad_entries : int;
  skipped_bytes : int;
  truncated : bool;
}

(* Handles resolved once at boot; connection threads only update. *)
type meters = {
  m_requests : Metrics.counter;  (* frames decoded into requests *)
  m_plans : Metrics.counter;  (* plan/plan_serve ops *)
  m_planned : Metrics.counter;  (* plans answered Done *)
  m_cache_hits : Metrics.counter;
  m_fallback : Metrics.counter;  (* served from the min-comm tier *)
  m_fallback_planned : Metrics.counter;  (* min-comm plans computed *)
  m_shed : Metrics.counter;
  m_rate_limited : Metrics.counter;
  m_saturated : Metrics.counter;
  m_errors : Metrics.counter;  (* any non-ok reply *)
  m_oversized : Metrics.counter;
  m_journal_appends : Metrics.counter;
  m_reloads : Metrics.counter;  (* successful tenant-table reloads *)
  m_connections : Metrics.gauge;  (* currently open *)
  m_latency : Metrics.histogram;  (* plan-op wall seconds *)
}

type t = {
  config : config;
  service : Service.t;
  admission : Admission.t;
  journal : Journal.t option;
  report : replay_report;
  registry : Metrics.t;
  meters : meters;
  started : float;
  sample_rng : Cf_fault.Rng.t;
  sample_lock : Mutex.t;
  lock : Mutex.t;  (* connection registry + lifecycle *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable next_conn : int;
  mutable conn_threads : Thread.t list;
  mutable accept_threads : Thread.t list;
  mutable compactor : Thread.t option;
  listeners : (Unix.file_descr * string) list;
  tcp_port : int option;
  mutable stopping : bool;
  mutable stopped : bool;
}

(* {2 Journal entries}

   The store journals the {e request}, not the plan: planning is
   deterministic, so digest + strategy + radius + canonical source
   rebuild the identical plan on replay.  This keeps records small and
   sidesteps serializing the plan structure.  An entry that holds a
   fallback plan says so with the [nprocs] it was planned for; a record
   without that field (every record written before fallbacks were
   cached) replays as exact-only. *)

type entry = {
  digest : string;
  strategy : Cf_core.Strategy.t;
  search_radius : int option;
  fallback : int option;  (** [nprocs] of the entry's fallback plan *)
  src : string;  (** the canonical nest *)
}

let int_opt name = function
  | None -> []
  | Some n -> [ (name, Json.Num (float_of_int n)) ]

let entry_to_json e =
  Json.to_string
    (Json.Obj
       ((("digest", Json.Str e.digest)
         :: ("strategy", Json.Str (Cf_core.Strategy.to_string e.strategy))
         :: int_opt "radius" e.search_radius)
       @ int_opt "fallback" e.fallback
       @ [ ("nest", Json.Str e.src) ]))

let entry_of_json s =
  match Json.parse s with
  | Error _ -> None
  | Ok j -> (
    let str name = Option.bind (Json.member name j) Json.str in
    let int name =
      match Option.bind (Json.member name j) Json.num with
      | Some r when Float.is_integer r -> Some (int_of_float r)
      | _ -> None
    in
    match (str "digest", str "strategy", str "nest") with
    | Some digest, Some sname, Some src ->
      Option.map
        (fun strategy ->
          {
            digest;
            strategy;
            search_radius = int "radius";
            fallback = int "fallback";
            src;
          })
        (Protocol.strategy_of_string sname)
    | _ -> None)

(* The planner's cache key: a record carrying a fallback supersedes the
   entry's earlier exact-only record. *)
let entry_key s =
  Option.map
    (fun e ->
      Printf.sprintf "%s/%s/%s" e.digest
        (Cf_core.Strategy.to_string e.strategy)
        (match e.search_radius with None -> "-" | Some r -> string_of_int r))
    (entry_of_json s)

(* A journaled fallback is re-planned only for the placement size this
   server serves; for any other it would never be reused. *)
let replay_into ~nprocs service entries =
  let warmed = ref 0 and bad = ref 0 in
  List.iter
    (fun s ->
      match entry_of_json s with
      | None -> incr bad
      | Some e -> (
        match Cf_loop.Parse.nest e.src with
        | exception _ -> incr bad
        | nest ->
          let serve = if e.fallback = Some nprocs then e.fallback else None in
          if
            Service.warm ~strategy:e.strategy ?search_radius:e.search_radius
              ?serve service nest
          then incr warmed
          else incr bad))
    entries;
  (!warmed, !bad)

(* {2 Sockets} *)

let resolve_host host =
  if host = "" || host = "0.0.0.0" then Unix.inet_addr_any
  else
    try Unix.inet_addr_of_string host
    with _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found ->
        invalid_arg (Printf.sprintf "Server: unknown host %S" host))

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

(* {2 Request handling} *)

let num_of_int i = Json.Num (float_of_int i)

let summary_json (s : Cf_obs.Histogram.summary) =
  Json.Obj
    [
      ("count", num_of_int s.count);
      ("mean", Json.Num s.mean);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("p50", Json.Num s.p50);
      ("p95", Json.Num s.p95);
      ("p99", Json.Num s.p99);
    ]

let service_stats_json (s : Service.stats) =
  Json.Obj
    [
      ("domains", num_of_int s.domains);
      ("submitted", num_of_int s.submitted);
      ("completed", num_of_int s.completed);
      ("rejected", num_of_int s.rejected);
      ("timed_out", num_of_int s.timed_out);
      ("failed", num_of_int s.failed);
      ("tripped", num_of_int s.tripped);
      ("queue_depth", num_of_int s.queue_depth);
      ("in_flight", num_of_int s.in_flight);
      ("queue_hwm", num_of_int s.queue_hwm);
      ("throughput", Json.Num s.throughput);
      ("latency", summary_json s.latency);
      ( "cache",
        match s.cache with
        | None -> Json.Null
        | Some c ->
          Json.Obj
            [
              ("hits", num_of_int c.Cf_cache.Memo.hits);
              ("misses", num_of_int c.misses);
              ("evictions", num_of_int c.evictions);
              ("size", num_of_int c.size);
              ("capacity", num_of_int c.capacity);
            ] );
    ]

let journal_json t =
  match t.journal with
  | None -> Json.Null
  | Some j ->
    let s = Journal.stats j in
    Json.Obj
      [
        ("path", Json.Str (Journal.path j));
        ("size_bytes", num_of_int (Journal.size j));
        ("appended", num_of_int s.appended);
        ("syncs", num_of_int s.syncs);
        ("compactions", num_of_int s.compactions);
        ("replayed", num_of_int s.replayed);
        ("replay_skipped_bytes", num_of_int s.replay_skipped_bytes);
        ("replay_warmed", num_of_int t.report.warmed);
        ("replay_bad_entries", num_of_int t.report.bad_entries);
      ]

let stats_json t =
  Protocol.ok
    [
      ("op", Json.Str "stats");
      ("uptime", Json.Num (Unix.gettimeofday () -. t.started));
      ("service", service_stats_json (Service.stats t.service));
      ("admission", Admission.stats_to_json (Admission.stats t.admission));
      ("journal", journal_json t);
      ("metrics", Metrics.to_json (Metrics.snapshot t.registry));
    ]

let health_json t =
  let h = Service.health t.service in
  Protocol.ok
    [
      ("op", Json.Str "health");
      ("ready", Json.Bool (h.ready && not t.stopping));
      ("live_domains", num_of_int h.live_domains);
      ("total_domains", num_of_int h.total_domains);
      ("worker_crashes", num_of_int h.worker_crashes);
      ("worker_restarts", num_of_int h.worker_restarts);
      ("uptime", Json.Num (Unix.gettimeofday () -. t.started));
    ]

let sampled t =
  Trace.enabled t.config.trace
  && t.config.trace_sample > 0.
  &&
  (Mutex.lock t.sample_lock;
   let u = Cf_fault.Rng.float t.sample_rng in
   Mutex.unlock t.sample_lock;
   u < t.config.trace_sample)

(* One record per cache miss, and one more when a hit's fallback is
   planned, so that the entry's latest record carries it. *)
let journal_completion t ~strategy ~search_radius (c : Service.completion) =
  match t.journal with
  | Some j when (not c.cache_hit) || c.fallback_planned ->
    Journal.append j
      (entry_to_json
         {
           digest = c.canon.Cf_cache.Canon.digest;
           strategy;
           search_radius;
           fallback = Option.map (fun _ -> t.config.nprocs) c.fallback;
           src = Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp c.canon.nest;
         });
    Metrics.incr t.meters.m_journal_appends
  | _ -> ()

let plan_response t (c : Service.completion) =
  if c.cache_hit then Metrics.incr t.meters.m_cache_hits;
  if c.fallback_planned then Metrics.incr t.meters.m_fallback_planned;
  Metrics.incr t.meters.m_planned;
  let plan = c.plan in
  let base =
    [
      ("op", Json.Str "plan");
      ("digest", Json.Str c.canon.Cf_cache.Canon.digest);
      ("cache_hit", Json.Bool c.cache_hit);
      ("parallelism", num_of_int (Cf_pipeline.Pipeline.parallelism plan));
      ("blocks", num_of_int (Cf_pipeline.Pipeline.block_count plan));
      ("latency_ms", Json.Num (1e3 *. c.latency));
    ]
  in
  match c.fallback with
  | Some mc ->
    (* Theorem-rejected nest on the serving path: the worker degraded it
       to the communication-minimal tier instead of a zero-parallelism
       plan, under the search radius the exact tier was planned with. *)
    Metrics.incr t.meters.m_fallback;
    Protocol.ok
      (base
      @ [
          ("tier", Json.Str "fallback");
          ("origin", Json.Str mc.choice.origin);
          ("predicted_messages", num_of_int mc.estimate.messages);
          ("servable", Json.Bool (Cf_mincomm.Mincomm.servable mc));
        ])
  | None -> Protocol.ok (base @ [ ("tier", Json.Str "exact") ])

let handle_plan t ~tenant ~serve ~src ~strategy ~search_radius ~timeout =
  match Cf_loop.Parse.nest src with
  | exception Cf_loop.Parse.Error msg ->
    Protocol.error_response ~detail:msg Protocol.Parse_error
  | exception Invalid_argument msg ->
    Protocol.error_response ~detail:msg Protocol.Parse_error
  | nest -> (
    match Admission.admit t.admission tenant with
    | Admission.Rate_limited ->
      Metrics.incr t.meters.m_rate_limited;
      Protocol.error_response
        ~detail:(Printf.sprintf "tenant %S over its rate limit" tenant)
        Protocol.Rate_limited
    | Admission.Shed level ->
      Metrics.incr t.meters.m_shed;
      Protocol.error_response
        ~detail:
          (Printf.sprintf "load shed: tenant %S below priority watermark %d"
             tenant level)
        Protocol.Rejected
    | Admission.Saturated ->
      Metrics.incr t.meters.m_saturated;
      Protocol.error_response ~detail:"server saturated" Protocol.Rejected
    | Admission.Admitted ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.admission tenant)
        (fun () ->
          let serve = if serve then Some t.config.nprocs else None in
          match
            Service.plan_one ~strategy ?search_radius ?serve ?timeout
              t.service nest
          with
          | Service.Done c ->
            journal_completion t ~strategy ~search_radius c;
            plan_response t c
          | Service.Failed msg ->
            Protocol.error_response ~detail:msg Protocol.Plan_failed
          | Service.Rejected ->
            Protocol.error_response ~detail:"service queue full"
              Protocol.Rejected
          | Service.Timed_out ->
            Protocol.error_response ~detail:"deadline expired before planning"
              Protocol.Timed_out
          | Service.Tripped ->
            Protocol.error_response
              ~detail:
                (Printf.sprintf "circuit breaker open for strategy %s"
                   (Cf_core.Strategy.to_string strategy))
              Protocol.Tripped))

(* {2 Tenant-table reload}

   One spec per line, same syntax as the --tenant flag; blank lines and
   #-comments skipped.  Any bad line rejects the whole file, so a typo
   can never half-apply a reload. *)
let tenants_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line -> (
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go (lineno + 1) acc
          else
            match Admission.tenant_of_spec line with
            | Ok tenant -> go (lineno + 1) (tenant :: acc)
            | Error msg ->
              Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

let reload_tenants t =
  let tenants =
    match t.config.tenants_file with
    | None -> Ok t.config.tenants
    | Some path -> (
      try tenants_of_file path
      with Sys_error msg -> Error msg)
  in
  match tenants with
  | Error _ as e -> e
  | Ok ts ->
    Admission.reconfigure t.admission ts;
    Metrics.incr t.meters.m_reloads;
    Ok (List.length ts)

(* One decoded frame -> one reply.  [`Close] additionally ends the
   connection after the reply is written. *)
let handle_frame t ~tenant ~greeted payload =
  Metrics.incr t.meters.m_requests;
  if t.stopping then
    (Protocol.error_response Protocol.Shutting_down, `Close)
  else
    match Json.parse payload with
    | Error msg ->
      (Protocol.error_response ~detail:msg Protocol.Bad_json, `Keep)
    | Ok j -> (
      match Protocol.request_of_json j with
      | Error (code, msg) ->
        let verdict =
          match code with
          | Protocol.Unsupported_version -> `Close
          | _ -> `Keep
        in
        (Protocol.error_response ~detail:msg code, verdict)
      | Ok (Protocol.Hello { tenant = who; _ }) ->
        tenant := who;
        greeted := true;
        (Protocol.hello_ok, `Keep)
      | Ok _ when not !greeted ->
        ( Protocol.error_response
            ~detail:"send {\"op\":\"hello\",\"v\":1} first"
            Protocol.Handshake_required,
          `Keep )
      | Ok (Protocol.Plan { serve; src; strategy; search_radius; timeout }) ->
        let t0 = Unix.gettimeofday () in
        Metrics.incr t.meters.m_plans;
        let trace_this = sampled t in
        let reply =
          handle_plan t ~tenant:!tenant ~serve ~src ~strategy ~search_radius
            ~timeout
        in
        let dt = Unix.gettimeofday () -. t0 in
        Metrics.observe t.meters.m_latency dt;
        if trace_this then
          Trace.complete t.config.trace ~lane:Trace.host_lane ~cat:"server"
            ~ts:(Trace.now t.config.trace) ~dur:dt "request"
            ~args:
              [
                ("tenant", Trace.Str !tenant);
                ("op", Trace.Str (if serve then "plan_serve" else "plan"));
                ( "result",
                  Trace.Str
                    (if Protocol.is_ok reply then "ok"
                     else
                       match Protocol.error_code_of reply with
                       | Some c -> Protocol.code_string c
                       | None -> "error") );
              ];
        (reply, `Keep)
      | Ok Protocol.Stats -> (stats_json t, `Keep)
      | Ok Protocol.Health -> (health_json t, `Keep)
      | Ok Protocol.Reload -> (
        match reload_tenants t with
        | Ok n ->
          ( Protocol.ok
              [
                ("op", Json.Str "reload");
                ("tenants", num_of_int n);
                ( "source",
                  Json.Str
                    (Option.value t.config.tenants_file ~default:"config") );
              ],
            `Keep )
        | Error msg ->
          (Protocol.error_response ~detail:msg Protocol.Bad_request, `Keep)))

let serve_conn t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout;
  let decoder = Frame.decoder ~max_frame:t.config.max_frame () in
  let tenant = ref "default" and greeted = ref false in
  let send j = Frame.write_frame fd (Json.to_string j) in
  let rec loop () =
    match Frame.read_frame decoder fd with
    | `Eof -> ()
    | `Timeout ->
      send
        (Protocol.error_response
           ~detail:
             (Printf.sprintf "no frame within %.0fs" t.config.read_timeout)
           Protocol.Timed_out)
    | `Oversized n ->
      Metrics.incr t.meters.m_oversized;
      send
        (Protocol.error_response
           ~detail:
             (Printf.sprintf "frame of %d bytes exceeds limit %d" n
                t.config.max_frame)
           Protocol.Oversized_frame)
    | `Frame payload -> (
      let reply, verdict = handle_frame t ~tenant ~greeted payload in
      if not (Protocol.is_ok reply) then Metrics.incr t.meters.m_errors;
      send reply;
      match verdict with `Close -> () | `Keep -> loop ())
  in
  (* A peer vanishing mid-write (EPIPE/ECONNRESET) is a normal way for a
     connection to end, not a server error. *)
  try loop () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> ()

let register_conn t fd =
  Mutex.lock t.lock;
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.conns id fd;
  Metrics.set_gauge t.meters.m_connections
    (float_of_int (Hashtbl.length t.conns));
  Mutex.unlock t.lock;
  id

let unregister_conn t id fd =
  Mutex.lock t.lock;
  Hashtbl.remove t.conns id;
  Metrics.set_gauge t.meters.m_connections
    (float_of_int (Hashtbl.length t.conns));
  Mutex.unlock t.lock;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop t lfd =
  let rec go () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      let id = register_conn t fd in
      let th =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> unregister_conn t id fd)
              (fun () -> serve_conn t fd))
          ()
      in
      Mutex.lock t.lock;
      t.conn_threads <- th :: t.conn_threads;
      Mutex.unlock t.lock;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if not t.stopping then go ()
    | exception Unix.Unix_error (_, _, _) ->
      (* The listener was shut down (stop) or is unusable; either way
         this acceptor is done. *)
      ()
  in
  go ()

(* Compaction keeps the latest record per key, so once the distinct
   keys alone fill [journal_max_bytes] it can no longer shrink the file
   below the threshold.  The next compaction therefore also waits until
   the journal has doubled since the last one; otherwise it would
   rewrite the whole file on every tick. *)
let compactor_loop t j =
  let compacted = ref 0 in
  let rec go () =
    if not t.stopping then begin
      if Journal.size j > max t.config.journal_max_bytes (2 * !compacted)
      then begin
        (try Journal.compact j ~key:entry_key with Sys_error _ -> ());
        compacted := Journal.size j
      end;
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let compact_now t =
  match t.journal with
  | None -> ()
  | Some j -> Journal.compact j ~key:entry_key

let replay_report t = t.report
let port t = t.tcp_port

let start config =
  if config.unix_socket = None && config.tcp = None then
    invalid_arg "Server.start: no listener configured";
  if config.trace_sample < 0. || config.trace_sample > 1. then
    invalid_arg "Server.start: trace_sample must be in [0, 1]";
  if config.nprocs < 1 then invalid_arg "Server.start: nprocs must be >= 1";
  let boot_tenants =
    match config.tenants_file with
    | None -> config.tenants
    | Some path -> (
      match (try tenants_of_file path with Sys_error msg -> Error msg) with
      | Ok ts -> ts
      | Error msg -> invalid_arg ("Server.start: tenants file: " ^ msg))
  in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let registry = Metrics.create () in
  let meters =
    {
      m_requests = Metrics.counter registry "server.requests";
      m_plans = Metrics.counter registry "server.plan_requests";
      m_planned = Metrics.counter registry "server.planned";
      m_cache_hits = Metrics.counter registry "server.cache_hits";
      m_fallback = Metrics.counter registry "server.fallback_served";
      m_fallback_planned = Metrics.counter registry "server.fallback_planned";
      m_shed = Metrics.counter registry "server.shed";
      m_rate_limited = Metrics.counter registry "server.rate_limited";
      m_saturated = Metrics.counter registry "server.saturated";
      m_errors = Metrics.counter registry "server.errors";
      m_oversized = Metrics.counter registry "server.oversized_frames";
      m_journal_appends = Metrics.counter registry "server.journal_appends";
      m_reloads = Metrics.counter registry "server.tenant_reloads";
      m_connections = Metrics.gauge registry "server.connections";
      m_latency = Metrics.histogram registry "server.latency";
    }
  in
  let service =
    Service.create ?domains:config.domains ~queue_depth:config.queue_depth
      ~cache:config.cache ~obs:config.trace ()
  in
  let journal, report =
    match config.journal with
    | None ->
      ( None,
        {
          entries = 0;
          warmed = 0;
          bad_entries = 0;
          skipped_bytes = 0;
          truncated = false;
        } )
    | Some path ->
      let j, replay =
        Journal.open_ ~fsync_every:config.fsync_every
          ~max_record:config.max_frame path
      in
      let warmed, bad =
        replay_into ~nprocs:config.nprocs service replay.Journal.entries
      in
      ( Some j,
        {
          entries = List.length replay.Journal.entries;
          warmed;
          bad_entries = bad;
          skipped_bytes = replay.Journal.skipped_bytes;
          truncated = replay.Journal.truncated;
        } )
  in
  let listeners, tcp_port =
    let unix_l =
      match config.unix_socket with
      | None -> []
      | Some path -> [ (listen_unix path, "unix:" ^ path) ]
    in
    match config.tcp with
    | None -> (unix_l, None)
    | Some (host, port) ->
      let fd, bound = listen_tcp host port in
      ( unix_l @ [ (fd, Printf.sprintf "tcp:%s:%d" host bound) ],
        Some bound )
  in
  let t =
    {
      config;
      service;
      admission =
        Admission.create ~shed_start:config.shed_start
          ~capacity:config.admit_capacity boot_tenants;
      journal;
      report;
      registry;
      meters;
      started = Unix.gettimeofday ();
      sample_rng = Cf_fault.Rng.make config.trace_seed;
      sample_lock = Mutex.create ();
      lock = Mutex.create ();
      conns = Hashtbl.create 16;
      next_conn = 0;
      conn_threads = [];
      accept_threads = [];
      compactor = None;
      listeners;
      tcp_port;
      stopping = false;
      stopped = false;
    }
  in
  t.accept_threads <-
    List.map (fun (fd, _) -> Thread.create (accept_loop t) fd) listeners;
  (match journal with
  | Some j -> t.compactor <- Some (Thread.create (compactor_loop t) j)
  | None -> ());
  t

let stop t =
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  t.stopping <- true;
  Mutex.unlock t.lock;
  if not already then begin
    (* Wake the acceptors: shutdown unblocks a blocking [accept] on
       Linux; close covers the rest. *)
    List.iter
      (fun (fd, _) ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    List.iter Thread.join t.accept_threads;
    (* Wake blocked connection reads, then join their threads. *)
    Mutex.lock t.lock;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [] in
    let threads = t.conn_threads in
    t.conn_threads <- [];
    Mutex.unlock t.lock;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds;
    List.iter Thread.join threads;
    Option.iter Thread.join t.compactor;
    Service.shutdown t.service;
    Option.iter Journal.close t.journal;
    match t.config.unix_socket with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ()
  end
