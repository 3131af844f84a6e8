(** Structured tracing with explicit clocks and pluggable sinks.

    One event model serves every layer: the simulated machine emits
    events stamped with {e simulated} seconds (distribution/compute
    clocks), while planners and services emit events stamped by an
    {e injected} wall clock.  Nothing in this module reads the real
    time — a trace is created with a clock function and every implicit
    timestamp comes from it, keeping runs deterministic and replayable.

    {b Lanes}: each event belongs to an integer lane, rendered as one
    timeline row.  Conventions used across the repo (see DESIGN.md):
    lane [p >= 0] is processor [p] (simulated time), {!host_lane} (-1)
    is the host/distribution engine (simulated time), {!planner_lane}
    (-2) is compile-time planning (injected wall clock).  Lanes may
    carry different clock domains; the invariant the {!validate_chrome}
    checker enforces is monotonicity {e per lane}, never across lanes.

    {b Overhead}: a disabled trace ({!null}, or any trace whose sink is
    {!null_sink}) short-circuits every emission behind one branch, so
    instrumentation can stay on permanently (bench E17 pins the cost at
    under 2%). *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = {
  name : string;
  cat : string;  (** category, e.g. ["dist"], ["compute"], ["fault"] *)
  lane : int;
  ts : float;  (** seconds, in the lane's clock domain *)
  dur : float option;  (** [Some d]: a complete span; [None]: instant *)
  args : (string * arg) list;
}

(** {1 Sinks} *)

type sink

val null_sink : sink
(** Discards everything. *)

val ring : capacity:int -> sink
(** Keeps the most recent [capacity] events (older ones are counted as
    dropped).  Domain-safe: emission locks a mutex, so use generous
    capacities rather than hot small rings. *)

(** {1 Traces} *)

type t

val null : t
(** The default everywhere: disabled, no clock, near-zero overhead. *)

val make : ?clock:(unit -> float) -> sink -> t
(** [clock] supplies implicit timestamps for {!instant} and {!span}
    (default: a constant 0 — fine when every event carries explicit
    simulated times).  Callers wanting wall-clock spans pass e.g. a
    rebased [Unix.gettimeofday] — this library never calls it. *)

val enabled : t -> bool
val now : t -> float
(** The trace's clock (0 for {!null}). *)

val host_lane : int
val planner_lane : int

(** {1 Emission} *)

val emit : t -> event -> unit

val instant : t -> ?lane:int -> ?cat:string -> ?args:(string * arg) list ->
  string -> unit
(** Instant event stamped by the trace clock. *)

val mark : t -> lane:int -> ?cat:string -> ?args:(string * arg) list ->
  ts:float -> string -> unit
(** Instant event with an explicit (e.g. simulated) timestamp. *)

val complete : t -> lane:int -> ?cat:string -> ?args:(string * arg) list ->
  ts:float -> dur:float -> string -> unit
(** Complete span with explicit start and duration. *)

val span : t -> ?lane:int -> ?cat:string -> ?args:(string * arg) list ->
  string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and emits a complete span measured by the
    trace clock (default lane {!planner_lane}).  The span is emitted
    even when [f] raises; when the trace is disabled this is exactly
    [f ()]. *)

(** {1 Inspection} *)

val events : t -> event list
(** Buffered events, oldest first ([[]] for {!null_sink}). *)

val dropped : t -> int
(** Events lost to ring overflow. *)

(** {1 Export} *)

val to_chrome : ?process_name:string -> event list -> string
(** Chrome [trace_event] JSON (the [{"traceEvents": [...]}] object
    form), loadable in [chrome://tracing] and Perfetto.  Lanes become
    named threads of one process (host, planner, PE 0..); timestamps
    are exported in microseconds.  Complete spans use phase ["X"],
    instants phase ["i"].  Events are exported by start time, ties
    broken longest span first, then by lane; events equal on all three
    keep their emission order, so a run whose timestamps are
    deterministic exports the same file whatever order its domains
    emitted in. *)

val to_jsonl : event list -> string
(** One JSON object per line, schema mirroring {!event} — the compact
    machine-readable format — in {!to_chrome}'s order. *)

val validate_chrome : string -> (int, string) result
(** Check a Chrome trace JSON document: parses, has a [traceEvents]
    array whose entries carry [name]/[ph]/[ts]/[pid]/[tid], duration
    events ([B]/[E]) balance per lane, and timestamps are monotone per
    lane in file order ([X]/[i]/[B]/[E]; metadata [M] is exempt —
    {!to_chrome} guarantees this by sorting on start time).  Returns the
    number of non-metadata events. *)
