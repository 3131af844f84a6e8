open Cf_cache

type entry = {
  canonical_key : string;  (** collision witness: full serialization *)
  plan : Cf_pipeline.Pipeline.t;  (** computed on the canonical nest *)
}

(* Single flight: the keys being planned right now.  The first miss on
   a key plans it; later requests for the same key wait on [landed]
   instead of probing the cache, then retry — a hit once the leader has
   stored its plan, a fresh leadership if the leader raised. *)
type t = {
  memo : (string, entry) Memo.t;
  lock : Mutex.t;
  landed : Condition.t;
  in_flight : (string, unit) Hashtbl.t;
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

let plan ?(obs = Cf_obs.Trace.null) ?(strategy = Cf_core.Strategy.Nonduplicate)
    ?search_radius t nest =
  let c = Canon.canonicalize nest in
  let key = memo_key c strategy search_radius in
  let tag hit =
    Cf_obs.Trace.instant obs ~cat:"cache"
      (if hit then "cache-hit" else "cache-miss")
      ~args:[ ("digest", Cf_obs.Trace.Str c.Canon.digest) ]
  in
  let rec probe () =
    if Hashtbl.mem t.in_flight key then begin
      Condition.wait t.landed t.lock;
      probe ()
    end
    else
      match Memo.find t.memo key with
      | Some e when String.equal e.canonical_key c.Canon.key -> Some e.plan
      | _ ->
        Hashtbl.replace t.in_flight key ();
        None
  in
  Mutex.lock t.lock;
  let cached = Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) probe in
  match cached with
  | Some p ->
    tag true;
    (Cf_pipeline.Pipeline.relabel p nest, true)
  | None ->
    (* Miss, or a digest collision (then the entry is overwritten); this
       request leads the key's flight.  The plan is computed on the
       canonical nest so the cached value is caller-independent; the
       caller's copy is relabeled either way, keeping hit and miss
       answers bit-identical. *)
    let settle () =
      Mutex.lock t.lock;
      Hashtbl.remove t.in_flight key;
      Condition.broadcast t.landed;
      Mutex.unlock t.lock
    in
    tag false;
    let p =
      Fun.protect ~finally:settle (fun () ->
          let p =
            Cf_pipeline.Pipeline.plan ~obs ~strategy ?search_radius
              c.Canon.nest
          in
          Memo.add t.memo key { canonical_key = c.Canon.key; plan = p };
          p)
    in
    (Cf_pipeline.Pipeline.relabel p nest, false)

let stats t = Memo.stats t.memo
let clear t = Memo.clear t.memo
