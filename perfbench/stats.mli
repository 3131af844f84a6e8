(** Order statistics and process measurements for the benchmark. *)

val sorted : float list -> float array
(** Ascending copy of the samples. *)

val percentile : float array -> float -> float
(** [percentile sorted p]: nearest-rank [p]-th percentile of ascending
    samples.  Raises [Invalid_argument] on an empty array. *)

val median : float list -> float

val beyond : int -> float -> int
(** [beyond n p]: how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile. *)

val min_beyond : int
(** 10: a tail percentile is reported only with at least this many
    samples beyond it. *)

val tail : ?max_p:float -> float array -> float * float
(** [tail sorted] is [(p, value)] for the highest percentile of the
    ladder 99.9, 99.5, 99, 98, 95, 90, 75, 50 that is at most [max_p]
    (default 99) and has at least {!min_beyond} samples beyond it; the
    median when no ladder step qualifies. *)

val peak_rss_mb : ?pid:string -> unit -> float
(** Peak resident set size ([VmHWM]) of a process, in MiB, read from
    [/proc/PID/status] ([pid] defaults to ["self"]). *)
