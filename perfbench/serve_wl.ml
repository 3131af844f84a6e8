(* Workload [serve]: a [cfalloc serve] child process (Unix socket, fresh
   journal, default cache, one worker domain) driven by two closed-loop
   client connections from this process.  The wire path, admission, the
   queue, the canonical-form cache and the journal do most of the work;
   the planner runs only on misses. *)

open Common
module Json = Cf_obs.Json
module Client = Cf_server.Client
module Protocol = Cf_server.Protocol
module Frame = Cf_server.Frame
module Canon = Cf_cache.Canon
module Strategy = Cf_core.Strategy

let conns = 2

(* Requests generated per connection per measured second, well above the
   rate one connection sustains.  A faster connection starts the stream
   over: a lap holds far more fresh nests than the cache, so they have
   been evicted and miss again. *)
let per_conn_rate = 3000

(* Requests per connection replayed in-process by the traced run. *)
let replay_per_conn = 1000

(* {2 The server child} *)

type server = { pid : int; dir : string; socket : string; out : Unix.file_descr }

let live = ref []

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* SIGTERM, then SIGKILL if the server has not exited within 10 s. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.05;
      reap ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (fun p -> p != s) !live;
  Unix.close s.out;
  rm_rf s.dir

let () =
  at_exit (fun () ->
      List.iter
        (fun s -> try Unix.kill s.pid Sys.sigkill; stop s with _ -> ())
        !live)

(* Read the child's stdout until its "ready" line. *)
let await_ready fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = now () +. 60. in
  let rec go () =
    if Buffer.contents buf |> String.split_on_char '\n' |> List.mem "ready" then ()
    else if now () > deadline then failwith "server not ready within 60 s"
    else
      match Unix.select [ fd ] [] [] 1. with
      | [], _, _ -> go ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "server exited before it was ready";
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

(* [cpu] pins the server to one CPU through taskset. *)
let start ~cfalloc ~cpu ~dir =
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let serve =
    [ cfalloc; "serve"; "--socket"; socket; "--journal";
      Filename.concat dir "plans.journal"; "--domains"; "1" ]
  in
  let argv =
    match cpu with
    | Some c -> "taskset" :: "-c" :: string_of_int c :: serve
    | None -> serve
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) null wr null in
  Unix.close wr;
  Unix.close null;
  let s = { pid; dir; socket; out = rd } in
  live := s :: !live;
  await_ready rd;
  s

let connect s =
  match Client.connect_unix s.socket with
  | Ok c -> c
  | Error msg -> failwith ("connect: " ^ msg)

(* {2 Set-up} *)

type setup = {
  hot : Cf_loop.Nest.t array;
  requests : Inputs.request array array;
  server : server;
}

let setup ~root ~seed ~seconds ~cfalloc ~cpu ~out k =
  let hot = Inputs.hot_set ~root in
  let count = int_of_float (seconds *. float_of_int per_conn_rate) in
  let requests = Inputs.requests ~seed ~hot ~conns ~count in
  let dir = Filename.concat out (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let server = start ~cfalloc ~cpu ~dir in
  (* Warm the cache with the hot set under every strategy. *)
  let client = connect server in
  Array.iter
    (fun nest ->
      let src = Cf_check.Corpus.render nest in
      List.iter
        (fun strategy ->
          match Client.plan ~strategy client src with
          | Ok reply when Protocol.is_ok reply -> ()
          | Ok reply -> failwith ("hot-set warm-up: " ^ Json.to_string reply)
          | Error msg -> failwith ("hot-set warm-up: " ^ msg))
        Strategy.all)
    hot;
  Client.close client;
  { hot; requests; server }

(* {2 Replies} *)

type reply = {
  ok : bool;
  tier : string;
  parallelism : int;
  blocks : int;
  cache_hit : bool;
  fallback : int option;  (** predicted messages of a fallback reply *)
  json : Json.t option;
}

let int_field j name =
  match Option.bind (Json.member name j) Json.num with
  | Some f -> int_of_float f
  | None -> -1

let reply_of = function
  | Error _ ->
    { ok = false; tier = ""; parallelism = -1; blocks = -1; cache_hit = false;
      fallback = None; json = None }
  | Ok j ->
    let str name =
      Option.value ~default:"" (Option.bind (Json.member name j) Json.str)
    in
    {
      ok = Protocol.is_ok j;
      tier = str "tier";
      parallelism = int_field j "parallelism";
      blocks = int_field j "blocks";
      cache_hit = Json.member "cache_hit" j = Some (Json.Bool true);
      fallback =
        (if str "tier" = "fallback" then Some (int_field j "predicted_messages")
         else None);
      json = Some j;
    }

(* {2 The measured phase} *)

(* One completed request: its index in the connection's stream. *)
type sample = { index : int; latency : float; reply : reply }

let drive ~seconds ~tracers s requests =
  let deadline = now () +. seconds in
  let results = Array.make conns [] in
  let finished = Array.make conns 0. in
  let start = now () in
  let errors = Array.make conns None in
  let conn c =
    match connect s with
    | exception Failure msg -> errors.(c) <- Some msg
    | client ->
    let reqs = requests.(c) in
    let k = ref 0 in
    while now () < deadline do
      let index = !k mod Array.length reqs in
      let r = reqs.(index) in
      let reply, latency =
        Spans.op tracers.(c) ((c lsl 24) + !k) (fun () ->
            time (fun () ->
                Client.plan ~serve:r.Inputs.serve ~strategy:r.Inputs.strategy client
                  r.Inputs.src))
      in
      results.(c) <- { index; latency; reply = reply_of reply } :: results.(c);
      incr k
    done;
    if !k > Array.length reqs then
      Printf.printf "connection %d went past its %d requests and started over\n"
        c (Array.length reqs);
    finished.(c) <- now ();
    Client.close client
  in
  let threads = List.init conns (fun c -> Thread.create conn c) in
  List.iter Thread.join threads;
  Array.iteri
    (fun c e -> Option.iter (Printf.printf "error: connection %d: %s\n" c) e)
    errors;
  let elapsed = Array.fold_left Float.max 0. finished -. start in
  (Array.map List.rev results, elapsed, Array.for_all Option.is_none errors)

(* {2 Output check}

   Every ok reply must equal an in-process plan of the same nest: a hot
   request is checked against its original hot-set nest (whose
   canonical digest it must share), a fresh one against itself. *)

let expect ~serve ~strategy nest =
  if serve then
    match Pipeline.plan_serve ~strategy nest with
    | Pipeline.Exact t ->
      ("exact", Pipeline.parallelism t, Pipeline.block_count t, None)
    | Pipeline.Fallback (_, mc) ->
      (* The reply carries the rejected theorem plan (Ψ is the whole
         space, one block) and the fallback's predicted volume; its
         [origin] names the caller's arrays, so renamings differ. *)
      ( "fallback", 0, 1,
        Some mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages )
  else
    let t = Pipeline.plan ~strategy nest in
    ("exact", Pipeline.parallelism t, Pipeline.block_count t, None)

let check st results =
  let hot_digests = Array.map Canon.digest st.hot in
  let memo = Hashtbl.create 1024 in
  let failed = ref 0 and attempted = ref 0 in
  let matches (r : Inputs.request) reply =
    let nest, key =
      match r.hot with
      | Some h -> (st.hot.(h), string_of_int h)
      | None -> (Cf_loop.Parse.nest r.src, r.src)
    in
    let same_digest =
      match r.hot with
      | Some h -> Canon.digest (Cf_loop.Parse.nest r.src) = hot_digests.(h)
      | None -> true
    in
    let key = (key, r.serve, r.strategy) in
    let tier, parallelism, blocks, fallback =
      match Hashtbl.find_opt memo key with
      | Some e -> e
      | None ->
        let e = expect ~serve:r.serve ~strategy:r.strategy nest in
        Hashtbl.add memo key e;
        e
    in
    same_digest && tier = reply.tier && parallelism = reply.parallelism
    && blocks = reply.blocks && fallback = reply.fallback
  in
  Array.iteri
    (fun c ->
      List.iter (fun { index; reply; _ } ->
          incr attempted;
          if not (reply.ok && matches st.requests.(c).(index) reply) then begin
            incr failed;
            if !failed <= 5 then
              Printf.printf
                "error: reply %d/%d (%s) does not match the in-process plan\n"
                c index
                (match reply.json with
                | Some j -> Json.to_string j
                | None -> "no reply")
          end))
    results;
  (!attempted, !failed)

let hot_quality hot =
  Array.fold_left
    (fun q nest ->
      List.fold_left
        (fun q strategy ->
          add_plan q
            (match Pipeline.plan_serve ~strategy nest with
            | p -> Some p
            | exception Invalid_argument _ -> None))
        q Strategy.all)
    empty_quality hot

let inputs_digest hot requests =
  Inputs.digest
    (Array.to_list (Array.map Cf_check.Corpus.render hot)
    @ List.concat_map
        (fun reqs -> Array.to_list (Array.map (fun r -> r.Inputs.src) reqs))
        (Array.to_list requests))

(* {2 Server-side figures} *)

let stats_metrics j =
  let path names =
    List.fold_left (fun acc n -> Option.bind acc (Json.member n)) (Some j) names
  in
  let num names = Option.value ~default:0. (Option.bind (path names) Json.num) in
  let tenants =
    Option.value ~default:[]
      (Option.bind (path [ "admission"; "tenants" ]) Json.list)
  in
  let tenant_sum field =
    List.fold_left
      (fun acc t ->
        acc
        +. Option.value ~default:0. (Option.bind (Json.member field t) Json.num))
      0. tenants
  in
  let hits = num [ "service"; "cache"; "hits" ] in
  let misses = num [ "service"; "cache"; "misses" ] in
  [
    ("admission.admitted", tenant_sum "admitted");
    ("admission.shed", tenant_sum "shed");
    ("admission.saturated", tenant_sum "saturated");
    ("admission.rate_limited", tenant_sum "rate_limited");
    ("admission.hwm", num [ "admission"; "hwm" ]);
    ("service.latency_p50_ms", 1e3 *. num [ "service"; "latency"; "p50" ]);
    ("service.latency_p99_ms", 1e3 *. num [ "service"; "latency"; "p99" ]);
    ("service.queue_hwm", num [ "service"; "queue_hwm" ]);
    ("memo.hits", hits);
    ("memo.misses", misses);
    ("memo.evictions", num [ "service"; "cache"; "evictions" ]);
    ("memo.hit_frac", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("journal.appended", num [ "journal"; "appended" ]);
    ("journal.syncs", num [ "journal"; "syncs" ]);
    ("journal.compactions", num [ "journal"; "compactions" ]);
  ]

(* {2 In-process replay}

   The traced run replays the recorded requests through the public
   functions each one crossed in the server and the client: frames and
   protocol JSON both ways, the parse, two canonicalizations (cache key
   and reply digest), on a miss the planner and a journal append, and
   the fallback tier's [Mincomm.plan] on fallback replies. *)

type wire = { mutable req_bytes : int; mutable reply_bytes : int }

let replay_one tr wire journal (r : Inputs.request) (reply : reply) =
  let span name f = Spans.span tr name f in
  let roundtrip payload =
    let frame = span "frame" (fun () -> Frame.encode payload) in
    (match
       span "frame" (fun () ->
           let d = Frame.decoder () in
           Frame.feed d frame;
           Frame.next d)
     with
    | `Frame p when p = payload -> ()
    | _ -> failwith "frame round trip");
    String.length frame
  in
  let request =
    Protocol.Plan
      { serve = r.serve; src = r.src; strategy = r.strategy; search_radius = None;
        timeout = None }
  in
  let payload =
    span "protocol" (fun () ->
        Json.to_string (Protocol.request_to_json request))
  in
  wire.req_bytes <- wire.req_bytes + roundtrip payload;
  ignore
    (span "protocol" (fun () ->
         Result.map Protocol.request_of_json (Json.parse payload)));
  let nest = span "parse" (fun () -> Cf_loop.Parse.nest r.src) in
  let canon = span "canon" (fun () -> Canon.canonicalize nest) in
  if not reply.cache_hit then begin
    ignore (traced_plan tr ~strategy:r.strategy canon.Canon.nest);
    span "journal" (fun () ->
        Cf_server.Journal.append journal
          (Json.to_string
             (Json.Obj
                [ ("digest", Json.Str canon.Canon.digest);
                  ("strategy", Json.Str (Strategy.to_string r.strategy));
                  ("nest", Json.Str (Cf_check.Corpus.render canon.Canon.nest)) ])))
  end;
  ignore (span "canon" (fun () -> Canon.digest nest));
  if reply.fallback <> None then
    ignore (span "mincomm" (fun () -> Cf_mincomm.Mincomm.plan ~nprocs:4 nest));
  match reply.json with
  | None -> ()
  | Some j ->
    let text = span "protocol" (fun () -> Json.to_string j) in
    wire.reply_bytes <- wire.reply_bytes + roundtrip text;
    ignore (span "protocol" (fun () -> Json.parse text))

let replay ~out st results tr =
  let picked =
    List.concat
      (List.mapi
         (fun c samples ->
           List.filteri (fun k _ -> k < replay_per_conn) samples
           |> List.map (fun s -> (st.requests.(c).(s.index), s)))
         (Array.to_list results))
  in
  let path =
    Filename.concat out (Printf.sprintf "replay-%d.journal" (Unix.getpid ()))
  in
  let run tr =
    let wire = { req_bytes = 0; reply_bytes = 0 } in
    let journal, _ = Cf_server.Journal.open_ path in
    let (), dt =
      time (fun () ->
          List.iteri
            (fun i (r, s) ->
              Spans.op tr i (fun () -> replay_one tr wire journal r s.reply))
            picked)
    in
    Cf_server.Journal.close journal;
    Sys.remove path;
    (wire, dt)
  in
  let _, untraced_s = run (Spans.create ~enabled:false ()) in
  let wire, traced_s = run tr in
  let live_s = List.fold_left (fun acc (_, s) -> acc +. s.latency) 0. picked in
  (List.length picked, wire, untraced_s, traced_s, live_s)

(* {2 Entry} *)

let run ~root ~seed ~seconds ~cfalloc ~server_cpu ~out ~trace_path =
  let traced = trace_path <> None in
  let k = ref 0 in
  let st, setup_s =
    setup_median ~repeats:3
      ~discard:(fun st -> stop st.server)
      (fun () ->
        incr k;
        setup ~root ~seed ~seconds ~cfalloc ~cpu:server_cpu ~out !k)
  in
  let tracers =
    Array.init conns (fun c -> Spans.create ~lane:c ~enabled:traced ())
  in
  let results, elapsed, drove = drive ~seconds ~tracers st.server st.requests in
  let stats =
    let c = connect st.server in
    let s = Client.stats c in
    Client.close c;
    match s with Ok j -> j | Error msg -> failwith ("stats: " ^ msg)
  in
  let server_rss = Stats.peak_rss_mb ~pid:(string_of_int st.server.pid) () in
  stop st.server;
  let samples = List.concat (Array.to_list results) in
  let ok_replies = List.length (List.filter (fun s -> s.reply.ok) samples) in
  let attempted, failed = check st results in
  let hits = List.length (List.filter (fun s -> s.reply.cache_hit) samples) in
  Printf.printf
    "serve: %d requests over %d connections in %.3f s, %d ok, %d cache hits; %d \
     failed the output check\n"
    attempted conns elapsed ok_replies hits failed;
  (* Regenerate the hot set and the first requests of each connection:
     they must be byte-identical. *)
  let prefix = min 2000 (Array.length st.requests.(0)) in
  let digest hot requests =
    inputs_digest hot (Array.map (fun r -> Array.sub r 0 prefix) requests)
  in
  let d = digest st.hot st.requests in
  let hot = Inputs.hot_set ~root in
  let inputs_ok =
    d = digest hot (Inputs.requests ~seed ~hot ~conns ~count:prefix)
  in
  if not inputs_ok then print_endline "error: regenerated inputs differ";
  Printf.printf
    "inputs: hot set %d, %d requests per connection, md5 of the first %d %s\n"
    (Array.length st.hot) (Array.length st.requests.(0)) prefix d;
  let latencies = List.map (fun s -> s.latency) samples in
  match trace_path with
  | None ->
    let metrics =
      e2e_metrics
        {
          setup_s;
          throughput_per_s = float_of_int ok_replies /. elapsed;
          latencies_s = latencies;
          tail_max_p = 99.;
          peak_rss_mb = server_rss;
          quality = hot_quality st.hot;
        }
    in
    finish ~attempted ~failed ~correct:(inputs_ok && drove) metrics
  | Some trace_path ->
    let tr = Spans.create ~lane:conns ~enabled:true () in
    let replayed, wire, untraced_s, traced_s, live_s = replay ~out st results tr in
    let spans =
      List.concat_map Spans.spans (Array.to_list tracers) @ Spans.spans tr
    in
    let trace_ok = write_trace trace_path spans in
    let layers = Spans.aggregate (Spans.spans tr) in
    let server = stats_metrics stats in
    Printf.printf
      "serve traced: replayed %d recorded requests in-process\nper-layer table \
       (server counters: whole run; replay: per replay pass):\n"
      replayed;
    let metrics =
      per_layer_metrics
        (server
        @ layer_metrics ~passes:1 layers
        @ [
            ("frame.req_bytes", float_of_int wire.req_bytes);
            ("frame.reply_bytes", float_of_int wire.reply_bytes);
            ("journal.append_s", (Spans.find layers "journal").self_s);
            ( "client.outside_service_ms",
              (1e3 *. Stats.percentile (Stats.sorted latencies) 50.)
              -. List.assoc "service.latency_p50_ms" server );
            ("unaccounted_s", live_s -. layer_self layers);
            ("trace_overhead_frac", (traced_s /. untraced_s) -. 1.);
          ])
    in
    finish ~attempted ~failed ~correct:(inputs_ok && drove && trace_ok) metrics
