module Histogram = Cf_obs.Histogram

type completion = {
  plan : Cf_pipeline.Pipeline.t;
  fallback : Cf_mincomm.Mincomm.t option;
  canon : Cf_cache.Canon.t;
  cache_hit : bool;
  fallback_planned : bool;
  latency : float;
}

type outcome =
  | Done of completion
  | Failed of string
  | Rejected
  | Timed_out
  | Tripped

let pp_outcome ppf = function
  | Done c ->
    Format.fprintf ppf "done%s in %.3fms"
      (if c.cache_hit then " (cache hit)" else "")
      (1e3 *. c.latency)
  | Failed msg -> Format.fprintf ppf "failed: %s" msg
  | Rejected -> Format.fprintf ppf "rejected"
  | Timed_out -> Format.fprintf ppf "timed out"
  | Tripped -> Format.fprintf ppf "tripped (circuit open)"

(* {2 Per-strategy circuit breaker}

   Deterministic (count-based, not wall-clock) state machine guarded by
   the service lock.  Closed counts consecutive planner failures; at the
   threshold it opens with a fast-fail budget.  While open, requests of
   that strategy resolve [Tripped] without touching the planner; once
   the budget is spent the breaker half-opens and admits exactly one
   probe — success recloses it, failure reopens it with a fresh
   budget. *)

type breaker_config = { failure_threshold : int; open_budget : int }

let default_breaker = { failure_threshold = 5; open_budget = 16 }

type breaker_state =
  | Breaker_closed of int  (* consecutive failures so far *)
  | Breaker_open of int  (* fast-fails remaining before half-open *)
  | Breaker_half_open  (* single probe in flight *)

exception Crash_injected
(* Raised inside a worker by {!inject_worker_crash}; only ever observed
   by the supervisor. *)

(* A write-once cell the submitting thread blocks on. *)
type ticket = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable resolved : outcome option;
}

type job = {
  nest : Cf_loop.Nest.t;
  strategy : Cf_core.Strategy.t;
  search_radius : int option;
  serve : int option;  (** fallback placement size, for [plan_serve] *)
  deadline : float option;  (** absolute, [Unix.gettimeofday] scale *)
  submitted_at : float;
  ticket : ticket;
}

type t = {
  planner : Planner.t option;
  queue : job Queue.t;
  capacity : int;
  ndomains : int;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  idle : Condition.t;
  mutable closed : bool;
  mutable in_flight : int;
  mutable queue_hwm : int;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable tripped : int;
  mutable retried : int;
  breaker : breaker_config option;
  breakers : breaker_state array;  (* indexed like Strategy.all *)
  breaker_trips : int array;  (* closed -> open transitions, same index *)
  mutable live : int;  (* workers currently running *)
  mutable worker_crashes : int;
  mutable worker_restarts : int;
  mutable crash_requests : int;  (* pending fault injections *)
  hist : Histogram.t;
  created : float;
  obs : Cf_obs.Trace.t;
  mutable workers : unit Domain.t array;
}

let strategies = Array.of_list Cf_core.Strategy.all

let strategy_index s =
  let rec go i =
    if i >= Array.length strategies then
      invalid_arg "Service: unknown strategy"
    else if strategies.(i) = s then i
    else go (i + 1)
  in
  go 0

(* Both run under [t.lock]. *)
let breaker_admit t strategy =
  match t.breaker with
  | None -> `Run false
  | Some _ -> (
    let i = strategy_index strategy in
    match t.breakers.(i) with
    | Breaker_closed _ -> `Run false
    | Breaker_open n when n > 1 ->
      t.breakers.(i) <- Breaker_open (n - 1);
      `Trip
    | Breaker_open _ ->
      (* Budget spent: this very request is the probe. *)
      t.breakers.(i) <- Breaker_half_open;
      `Run true
    | Breaker_half_open ->
      (* A probe is already in flight; keep fast-failing until it
         reports back. *)
      `Trip)

let breaker_note t strategy ~probe outcome =
  match t.breaker with
  | None -> ()
  | Some cfg -> (
    let i = strategy_index strategy in
    match outcome with
    | Done _ -> t.breakers.(i) <- Breaker_closed 0
    | Failed _ ->
      if probe then begin
        t.breakers.(i) <- Breaker_open cfg.open_budget;
        t.breaker_trips.(i) <- t.breaker_trips.(i) + 1
      end
      else (
        match t.breakers.(i) with
        | Breaker_closed k when k + 1 >= cfg.failure_threshold ->
          t.breakers.(i) <- Breaker_open cfg.open_budget;
          t.breaker_trips.(i) <- t.breaker_trips.(i) + 1
        | Breaker_closed k -> t.breakers.(i) <- Breaker_closed (k + 1)
        | state -> t.breakers.(i) <- state)
    | Rejected | Timed_out | Tripped ->
      (* No planner involvement: not evidence either way. *)
      ())

let fresh_ticket () =
  { cm = Mutex.create (); cc = Condition.create (); resolved = None }

let resolve ticket outcome =
  Mutex.lock ticket.cm;
  ticket.resolved <- Some outcome;
  Condition.broadcast ticket.cc;
  Mutex.unlock ticket.cm

let await ticket =
  Mutex.lock ticket.cm;
  while ticket.resolved = None do
    Condition.wait ticket.cc ticket.cm
  done;
  let o = Option.get ticket.resolved in
  Mutex.unlock ticket.cm;
  o

let run_job t job =
  let now = Unix.gettimeofday () in
  match job.deadline with
  | Some d when now >= d -> Timed_out
  | _ -> (
    try
      let a =
        match t.planner with
        | Some p ->
          Planner.plan ~obs:t.obs ~strategy:job.strategy
            ?search_radius:job.search_radius ?serve:job.serve p job.nest
        | None ->
          Planner.uncached ~obs:t.obs ~strategy:job.strategy
            ?search_radius:job.search_radius ?serve:job.serve job.nest
      in
      Done
        {
          plan = a.Planner.plan;
          fallback = a.Planner.fallback;
          canon = a.Planner.canon;
          cache_hit = a.Planner.hit;
          fallback_planned = a.Planner.fallback_planned;
          latency = Unix.gettimeofday () -. job.submitted_at;
        }
    with e -> Failed (Printexc.to_string e))

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed && t.crash_requests = 0 do
    Condition.wait t.not_empty t.lock
  done;
  if t.crash_requests > 0 then begin
    (* Injected fault: die before touching the queue, so no accepted
       job can be lost to the crash. *)
    t.crash_requests <- t.crash_requests - 1;
    Mutex.unlock t.lock;
    raise Crash_injected
  end;
  if Queue.is_empty t.queue then
    (* Closed and fully drained: this worker is done. *)
    Mutex.unlock t.lock
  else begin
    let job = Queue.pop t.queue in
    t.in_flight <- t.in_flight + 1;
    let admit = breaker_admit t job.strategy in
    Condition.signal t.not_full;
    Mutex.unlock t.lock;
    (* The queue-wait span is backdated against the trace clock by the
       measured wall wait; exports sort by start time, so backdating is
       safe. *)
    if Cf_obs.Trace.enabled t.obs then begin
      let wait = Unix.gettimeofday () -. job.submitted_at in
      let tnow = Cf_obs.Trace.now t.obs in
      Cf_obs.Trace.complete t.obs ~lane:Cf_obs.Trace.planner_lane
        ~cat:"service" ~ts:(tnow -. wait) ~dur:wait "queue-wait"
        ~args:
          [ ("strategy", Cf_obs.Trace.Str
               (Cf_core.Strategy.to_string job.strategy)) ]
    end;
    let probe, outcome =
      match admit with
      | `Trip -> (false, Tripped)
      | `Run probe -> (probe, run_job t job)
    in
    if Cf_obs.Trace.enabled t.obs then begin
      let outcome_tag, hit =
        match outcome with
        | Done c -> ("done", c.cache_hit)
        | Failed _ -> ("failed", false)
        | Rejected -> ("rejected", false)
        | Timed_out -> ("timed-out", false)
        | Tripped -> ("tripped", false)
      in
      let t1 = Cf_obs.Trace.now t.obs in
      Cf_obs.Trace.mark t.obs ~lane:Cf_obs.Trace.planner_lane ~cat:"service"
        ~ts:t1 "request"
        ~args:
          [
            ("strategy", Cf_obs.Trace.Str
               (Cf_core.Strategy.to_string job.strategy));
            ("outcome", Cf_obs.Trace.Str outcome_tag);
            ("cache_hit", Cf_obs.Trace.Bool hit);
          ]
    end;
    (* Bookkeep before resolving the ticket, so a caller that observed
       the outcome via [await] also sees it reflected in [stats]. *)
    Mutex.lock t.lock;
    t.in_flight <- t.in_flight - 1;
    breaker_note t job.strategy ~probe outcome;
    (match outcome with
    | Done c ->
      t.completed <- t.completed + 1;
      Histogram.record t.hist c.latency
    | Timed_out -> t.timed_out <- t.timed_out + 1
    | Failed _ -> t.failed <- t.failed + 1
    | Tripped -> t.tripped <- t.tripped + 1
    | Rejected -> ());
    if Queue.is_empty t.queue && t.in_flight = 0 then
      Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    resolve job.ticket outcome;
    worker_loop t
  end

(* Supervisor: each domain runs the worker loop under a catch-all.  A
   crashed worker (injected or a genuine bug escaping [run_job]'s
   handler) is replaced in place while the service is open, so capacity
   self-heals; after [shutdown] the death is only recorded. *)
let rec supervised_worker t =
  match worker_loop t with
  | () ->
    Mutex.lock t.lock;
    t.live <- t.live - 1;
    Mutex.unlock t.lock
  | exception _ ->
    Mutex.lock t.lock;
    t.worker_crashes <- t.worker_crashes + 1;
    let restart = not t.closed in
    if restart then t.worker_restarts <- t.worker_restarts + 1
    else t.live <- t.live - 1;
    Mutex.unlock t.lock;
    if restart then supervised_worker t

let create ?domains ?(queue_depth = 64) ?(cache = Some 1024)
    ?(breaker = Some default_breaker) ?(obs = Cf_obs.Trace.null) () =
  if queue_depth < 1 then
    invalid_arg "Service.create: queue_depth must be >= 1";
  (match breaker with
  | Some { failure_threshold; open_budget }
    when failure_threshold < 1 || open_budget < 1 ->
    invalid_arg "Service.create: breaker thresholds must be >= 1"
  | _ -> ());
  let ndomains =
    match domains with
    | None -> max 1 (min 64 (Domain.recommended_domain_count ()))
    | Some d when d >= 1 -> min 64 d
    | Some _ -> invalid_arg "Service.create: domains must be >= 1"
  in
  let planner =
    match cache with
    | None -> None
    | Some capacity -> Some (Planner.create ~capacity ())
  in
  let t =
    {
      planner;
      queue = Queue.create ();
      capacity = queue_depth;
      ndomains;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      idle = Condition.create ();
      closed = false;
      in_flight = 0;
      queue_hwm = 0;
      submitted = 0;
      completed = 0;
      rejected = 0;
      timed_out = 0;
      failed = 0;
      tripped = 0;
      retried = 0;
      breaker;
      breakers = Array.map (fun _ -> Breaker_closed 0) strategies;
      breaker_trips = Array.map (fun _ -> 0) strategies;
      live = ndomains;
      worker_crashes = 0;
      worker_restarts = 0;
      crash_requests = 0;
      hist = Histogram.create ();
      created = Unix.gettimeofday ();
      obs;
      workers = [||];
    }
  in
  t.workers <-
    Array.init ndomains (fun _ -> Domain.spawn (fun () -> supervised_worker t));
  t

let enqueue ~block ?(strategy = Cf_core.Strategy.Nonduplicate) ?search_radius
    ?serve ?timeout t nest =
  let now = Unix.gettimeofday () in
  let ticket = fresh_ticket () in
  let job =
    {
      nest;
      strategy;
      search_radius;
      serve;
      deadline = Option.map (fun s -> now +. s) timeout;
      submitted_at = now;
      ticket;
    }
  in
  Mutex.lock t.lock;
  let accepted =
    if t.closed then false
    else if Queue.length t.queue < t.capacity then true
    else if not block then false
    else begin
      while Queue.length t.queue >= t.capacity && not t.closed do
        Condition.wait t.not_full t.lock
      done;
      not t.closed
    end
  in
  if accepted then begin
    t.submitted <- t.submitted + 1;
    Queue.push job t.queue;
    let depth = Queue.length t.queue in
    if depth > t.queue_hwm then t.queue_hwm <- depth;
    Condition.signal t.not_empty
  end
  else t.rejected <- t.rejected + 1;
  Mutex.unlock t.lock;
  if not accepted then resolve ticket Rejected;
  ticket

let submit ?strategy ?search_radius ?serve ?timeout t nest =
  enqueue ~block:false ?strategy ?search_radius ?serve ?timeout t nest

let plan_one ?strategy ?search_radius ?serve ?timeout t nest =
  await (submit ?strategy ?search_radius ?serve ?timeout t nest)

let plan_many ?strategy ?search_radius ?timeout t nests =
  List.map await
    (List.map
       (fun nest -> enqueue ~block:true ?strategy ?search_radius ?timeout t nest)
       nests)

let retry_delay ?(backoff = 0.001) ?(jitter = 0.1) rng attempt =
  if attempt < 1 then invalid_arg "Service.retry_delay: attempt must be >= 1";
  if backoff < 0. then invalid_arg "Service.retry_delay: backoff must be >= 0";
  if jitter < 0. then invalid_arg "Service.retry_delay: jitter must be >= 0";
  let base = backoff *. float_of_int (1 lsl (min 30 (attempt - 1))) in
  min 0.1 (base *. (1. +. (jitter *. Cf_fault.Rng.float rng)))

let plan_retry ?(max_attempts = 5) ?(backoff = 0.001) ?(jitter = 0.1)
    ?jitter_seed ?strategy ?search_radius ?timeout t nest =
  if max_attempts < 1 then
    invalid_arg "Service.plan_retry: max_attempts must be >= 1";
  if backoff < 0. then invalid_arg "Service.plan_retry: backoff must be >= 0";
  if jitter < 0. then invalid_arg "Service.plan_retry: jitter must be >= 0";
  (* Jitter decorrelates retry storms: simultaneous rejectees would
     otherwise sleep identical schedules and collide on every attempt.
     The stream is seeded (SplitMix64), so tests pin [jitter_seed] and
     see exact delays via {!retry_delay}. *)
  let rng =
    Cf_fault.Rng.make
      (match jitter_seed with
      | Some s -> s
      | None -> Hashtbl.hash (Unix.gettimeofday (), Domain.self ()))
  in
  let rec go attempt =
    match plan_one ?strategy ?search_radius ?timeout t nest with
    | Rejected when attempt < max_attempts ->
      Mutex.lock t.lock;
      t.retried <- t.retried + 1;
      let closed = t.closed in
      Mutex.unlock t.lock;
      if closed then Rejected (* retrying a closed service never helps *)
      else begin
        (* Exponential backoff, capped so a long retry chain cannot
           stall the caller for more than ~100ms per attempt. *)
        Unix.sleepf (retry_delay ~backoff ~jitter rng attempt);
        go (attempt + 1)
      end
    | o -> o
  in
  go 1

(* Planned on the caller's thread, bypassing the queue: boot-time cache
   warming must not contend with (or be shed by) live traffic, and the
   caller already holds the replayed request parameters. *)
let warm ?(strategy = Cf_core.Strategy.Nonduplicate) ?search_radius ?serve t
    nest =
  match t.planner with
  | None -> false
  | Some p -> (
    try
      ignore (Planner.plan ~obs:t.obs ~strategy ?search_radius ?serve p nest);
      true
    with _ -> false)

let inject_worker_crash t =
  Mutex.lock t.lock;
  t.crash_requests <- t.crash_requests + 1;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock

let drain t =
  Mutex.lock t.lock;
  while not (Queue.is_empty t.queue && t.in_flight = 0) do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock;
  let workers = t.workers in
  t.workers <- [||];
  Array.iter Domain.join workers

type breaker_snapshot = {
  strategy : Cf_core.Strategy.t;
  state : breaker_state;
  trips : int;
}

type health = {
  ready : bool;
  live_domains : int;
  total_domains : int;
  worker_crashes : int;
  worker_restarts : int;
  retried : int;
  breaker_states : breaker_snapshot list;
}

let health_locked t =
  {
    ready = (not t.closed) && t.live > 0;
    live_domains = t.live;
    total_domains = t.ndomains;
    worker_crashes = t.worker_crashes;
    worker_restarts = t.worker_restarts;
    retried = t.retried;
    breaker_states =
      (match t.breaker with
      | None -> []
      | Some _ ->
        Array.to_list
          (Array.mapi
             (fun i strategy ->
               { strategy; state = t.breakers.(i); trips = t.breaker_trips.(i) })
             strategies));
  }

let health t =
  Mutex.lock t.lock;
  let h = health_locked t in
  Mutex.unlock t.lock;
  h

let pp_breaker_state ppf = function
  | Breaker_closed k -> Format.fprintf ppf "closed (%d consecutive failures)" k
  | Breaker_open n -> Format.fprintf ppf "open (%d fast-fails left)" n
  | Breaker_half_open -> Format.fprintf ppf "half-open (probe in flight)"

let pp_health ppf h =
  Format.fprintf ppf "@[<v>ready: %b@,domains: %d/%d live" h.ready
    h.live_domains h.total_domains;
  Format.fprintf ppf "@,workers: %d crash(es), %d restart(s)" h.worker_crashes
    h.worker_restarts;
  Format.fprintf ppf "@,retries: %d" h.retried;
  List.iter
    (fun b ->
      Format.fprintf ppf "@,breaker %a: %a, %d trip(s)" Cf_core.Strategy.pp
        b.strategy pp_breaker_state b.state b.trips)
    h.breaker_states;
  Format.fprintf ppf "@]"

type stats = {
  domains : int;
  submitted : int;
  completed : int;
  rejected : int;
  timed_out : int;
  failed : int;
  tripped : int;
  queue_depth : int;
  in_flight : int;
  queue_hwm : int;
  uptime : float;
  throughput : float;
  latency : Histogram.summary;
  cache : Cf_cache.Memo.stats option;
  health : health;
}

let stats t =
  Mutex.lock t.lock;
  let uptime = Unix.gettimeofday () -. t.created in
  let s =
    {
      domains = t.ndomains;
      submitted = t.submitted;
      completed = t.completed;
      rejected = t.rejected;
      timed_out = t.timed_out;
      failed = t.failed;
      tripped = t.tripped;
      queue_depth = Queue.length t.queue;
      in_flight = t.in_flight;
      queue_hwm = t.queue_hwm;
      uptime;
      throughput =
        (if uptime > 0. then float_of_int t.completed /. uptime else 0.);
      latency = Histogram.summarize t.hist;
      cache = Option.map Planner.stats t.planner;
      health = health_locked t;
    }
  in
  Mutex.unlock t.lock;
  s

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>domains: %d@,\
     requests: %d submitted, %d completed, %d rejected, %d timed out, %d \
     failed, %d tripped@,\
     queue: depth %d (hwm %d), in flight %d@,\
     throughput: %.1f plans/s over %.2fs@,\
     latency: %a@,\
     cache: %a@,\
     %a@]"
    s.domains s.submitted s.completed s.rejected s.timed_out s.failed s.tripped
    s.queue_depth s.queue_hwm s.in_flight s.throughput s.uptime
    Histogram.pp_summary s.latency
    (fun ppf -> function
      | None -> Format.fprintf ppf "off"
      | Some c -> Cf_cache.Memo.pp_stats ppf c)
    s.cache pp_health s.health
