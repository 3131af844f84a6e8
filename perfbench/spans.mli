(** In-memory span recorder for the traced benchmark runs.

    A span is one call into a layer's public functions, made by the
    benchmark's own code: name, start, end, the enclosing span and the
    operation it belongs to, plus the words the OCaml runtime allocated
    in between ({!Gc.counters} deltas).  Spans stay in memory until the
    run ends; {!aggregate} turns them into per-layer self time and
    allocation, {!write_chrome} exports them as a Chrome trace. *)

type span = {
  id : int;
  name : string;
  op : int;  (** operation id; -1 outside any operation *)
  parent : int;  (** enclosing span id; -1 for a root *)
  lane : int;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  words : float;  (** words allocated while the span was open *)
}

type t
(** One recorder per thread: spans nest along the calling thread's
    stack. *)

val create : ?lane:int -> enabled:bool -> unit -> t
(** A disabled recorder runs wrapped calls directly and records
    nothing. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name] (also when [f]
    raises). *)

val op : t -> int -> (unit -> 'a) -> 'a
(** [op t id f] runs [f] as operation [id], inside a root span named
    ["op"]. *)

val spans : t -> span list
(** Completed spans, oldest first. *)

type layer = { self_s : float; calls : int; self_words : float }

val aggregate : span list -> (string * layer) list
(** Per span name: total self time (duration minus the time covered by
    child spans), call count and self allocation, sorted by name. *)

val find : (string * layer) list -> string -> layer
(** The named layer, or all zeros when it recorded no span. *)

val write_chrome : string -> span list -> (int, string) result
(** Write the spans as a Chrome trace to the path and check the file
    with {!Cf_obs.Trace.validate_chrome}; [Ok n] is its event count. *)
