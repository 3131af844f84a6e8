(** Seeded benchmark inputs.

    Every input is a pure function of the workload seed (plus the paper
    loops read from [examples/loops/]): the same seed gives
    byte-identical source text, request streams and renamings.  The
    program under test only ever receives these generated inputs.

    Generated nest structures for the [plan] corpus and the [serve] hot
    set come from one fixed {!Cf_check.Gen} stream, so every seed plans
    the same structures; the seed renames their identifiers, orders the
    corpus, and draws the [serve] workload's fresh nests. *)

type entry = { label : string; src : string }
(** One loop nest as DSL source text. *)

val plan_corpus : root:string -> seed:int -> entry list
(** The [plan] corpus: 120 generator nests (depths 1–3; per depth, half
    from [generate_unnormalized]), the 9 single-nest loops of
    [ROOT/examples/loops/], and every {!Cf_workloads.Workloads.all}
    kernel at size 12 — each under a seeded renaming, in a seeded
    order. *)

val hot_size : int
(** 64 nests in the [serve] hot set. *)

val hot_set : root:string -> Cf_loop.Nest.t array
(** L1–L5 followed by normal-form generator draws, pairwise distinct
    under {!Cf_cache.Canon.digest}. *)

val rename : Random.State.t -> Cf_loop.Nest.t -> Cf_loop.Nest.t
(** A fresh renaming of every index, array and scalar, drawn from the
    state.  Statement labels stay: normalization's fold compares them. *)

type request = {
  hot : int option;  (** index into the hot set; [None] for a fresh nest *)
  serve : bool;  (** [plan_serve] rather than [plan] *)
  strategy : Cf_core.Strategy.t;
  src : string;
}

val requests :
  seed:int -> hot:Cf_loop.Nest.t array -> conns:int -> count:int ->
  request array array
(** [count] requests for each of [conns] connections: 80% hot, 25%
    [plan_serve], each drawn independently.  Hot requests are renamed
    hot-set nests; fresh ones are generator draws distinct (by
    digest) from the hot set and from each other, across connections.
    Connection [c]'s [k]-th request uses strategy [k mod 4].  The first
    [k] requests of each connection do not depend on [count]. *)

val digest : string list -> string
(** MD5 hex of the concatenated texts, for the determinism self-check. *)
