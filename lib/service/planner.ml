open Cf_cache
module Pipeline = Cf_pipeline.Pipeline
module Mincomm = Cf_mincomm.Mincomm

type entry = {
  canonical_key : string;  (** collision witness: full serialization *)
  exact : Pipeline.t;  (** computed on the canonical nest *)
  fallback : Mincomm.t option;
      (** the canonical nest's fallback, once a [serve] request of the
          rejected nest filled it; reused for its own [nprocs] only *)
}

type answer = {
  plan : Pipeline.t;
  fallback : Mincomm.t option;
  canon : Canon.t;
  hit : bool;
  fallback_planned : bool;
}

(* Single flight: the keys being planned right now, as a fresh plan or
   as a fallback filled into an entry already stored.  The first request
   that finds work to do on a key does it; later requests for the same
   key wait on [landed] instead of probing the cache, then retry — a hit
   once the leader has stored its entry, a fresh leadership if the
   leader raised.  A request without [serve] needs no fallback, so
   while one is being filled it probes at once and hits. *)
type flight = Planning | Filling

type t = {
  memo : (string, entry) Memo.t;
  lock : Mutex.t;
  landed : Condition.t;
  in_flight : (string, flight) Hashtbl.t;
}

let create ?(capacity = 1024) () =
  {
    memo = Memo.create ~capacity ();
    lock = Mutex.create ();
    landed = Condition.create ();
    in_flight = Hashtbl.create 16;
  }

let memo_key (c : Canon.t) strategy search_radius =
  Printf.sprintf "%s/%s/%s" c.Canon.digest
    (Cf_core.Strategy.to_string strategy)
    (match search_radius with None -> "-" | Some r -> string_of_int r)

let fallback_of ~obs ~nprocs facts =
  Cf_obs.Trace.span obs ~cat:"plan" "fallback-plan" (fun () ->
      Mincomm.plan_of_facts ~nprocs facts)

(* [serve] asks for the fallback tier; only a theorem-rejected plan has
   one, and only a fallback planned for the same [nprocs] answers. *)
let needs_fallback ~serve e =
  match serve with
  | Some nprocs when Pipeline.parallelism e.exact = 0 -> (
    match e.fallback with
    | Some mc -> mc.Mincomm.nprocs <> nprocs
    | None -> true)
  | _ -> false

(* The caller's copy of an entry: relabeled either way, so hit and miss
   answers are bit-identical. *)
let answer_of ~serve ~hit ~fallback_planned (c : Canon.t) e nest =
  {
    plan = Pipeline.relabel e.exact nest;
    fallback =
      (match (serve, e.fallback) with
      | Some _, Some mc -> Some (Mincomm.relabel mc nest)
      | _ -> None);
    canon = c;
    hit;
    fallback_planned;
  }

let plan ?(obs = Cf_obs.Trace.null) ?(strategy = Cf_core.Strategy.Nonduplicate)
    ?search_radius ?serve t nest =
  let c = Canon.canonicalize nest in
  let key = memo_key c strategy search_radius in
  let tag hit =
    Cf_obs.Trace.instant obs ~cat:"cache"
      (if hit then "cache-hit" else "cache-miss")
      ~args:[ ("digest", Cf_obs.Trace.Str c.Canon.digest) ]
  in
  let lookup () =
    match Memo.find t.memo key with
    | Some e when String.equal e.canonical_key c.Canon.key -> Some e
    | _ -> None
  in
  let rec probe () =
    match Hashtbl.find_opt t.in_flight key with
    | Some Filling when serve = None -> (
      match lookup () with Some _ as hit -> hit | None -> wait ())
    | Some _ -> wait ()
    | None ->
      let cached = lookup () in
      (match cached with
      | Some e when not (needs_fallback ~serve e) -> ()
      | Some _ -> Hashtbl.replace t.in_flight key Filling
      | None -> Hashtbl.replace t.in_flight key Planning);
      cached
  and wait () =
    Condition.wait t.landed t.lock;
    probe ()
  in
  Mutex.lock t.lock;
  let cached = Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) probe in
  tag (Option.is_some cached);
  match cached with
  | Some e when not (needs_fallback ~serve e) ->
    answer_of ~serve ~hit:true ~fallback_planned:false c e nest
  | _ ->
    (* A miss (or a digest collision, whose entry is overwritten), or a
       hit still lacking the requested fallback: this request leads the
       key's flight.  Everything is planned on the canonical nest so the
       cached entry is caller-independent, and stored as soon as it
       exists — a fallback that raises keeps the exact plan cached.  A
       miss plans both tiers from one analysis of the canonical nest; a
       fill of an existing entry analyses it afresh. *)
    let settle () =
      Mutex.lock t.lock;
      Hashtbl.remove t.in_flight key;
      Condition.broadcast t.landed;
      Mutex.unlock t.lock
    in
    Fun.protect ~finally:settle (fun () ->
        let store e =
          Memo.add t.memo key e;
          e
        in
        let facts = lazy (Cf_core.Facts.make ?search_radius c.Canon.nest) in
        let e =
          match cached with
          | Some e -> e
          | None ->
            store
              {
                canonical_key = c.Canon.key;
                exact = Pipeline.plan_of_facts ~obs ~strategy (Lazy.force facts);
                fallback = None;
              }
        in
        let filled = needs_fallback ~serve e in
        let e =
          match serve with
          | Some nprocs when filled ->
            store
              {
                e with
                fallback = Some (fallback_of ~obs ~nprocs (Lazy.force facts));
              }
          | _ -> e
        in
        answer_of ~serve ~hit:(Option.is_some cached)
          ~fallback_planned:filled c e nest)

let uncached ?(obs = Cf_obs.Trace.null)
    ?(strategy = Cf_core.Strategy.Nonduplicate) ?search_radius ?serve nest =
  let facts = Cf_core.Facts.make ?search_radius nest in
  let plan = Pipeline.plan_of_facts ~obs ~strategy facts in
  let fallback =
    match serve with
    | Some nprocs when Pipeline.parallelism plan = 0 ->
      Some (fallback_of ~obs ~nprocs facts)
    | _ -> None
  in
  {
    plan;
    fallback;
    canon = Canon.canonicalize nest;
    hit = false;
    fallback_planned = Option.is_some fallback;
  }

let stats t = Memo.stats t.memo
let clear t = Memo.clear t.memo
