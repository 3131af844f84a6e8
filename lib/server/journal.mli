(** Append-only record journal with CRC framing and torn-tail recovery.

    The persistent plan store writes one record per cache-miss plan
    (and one more when an entry's fallback plan is first computed);
    replaying the journal on boot re-warms the plan cache, so cache
    warmth survives [kill -9].  Records are opaque strings here — the
    server layers its own JSON entry format on top.

    On-disk layout: an 8-byte magic header (["CFJRNL01"]), then records
    of [u32be payload-length · u32be CRC-32(payload) · payload].  A
    crash can tear the last record (partial header, partial payload, or
    a payload whose CRC no longer matches); replay accepts every record
    up to the first damaged one and counts the rest as a skipped tail —
    it {e never} raises on torn or corrupted bytes.  {!open_} truncates
    the tail so appends resume from the last committed record.

    Durability: every {!append} issues the [write] syscall immediately
    (surviving process death), while [fsync] (surviving power loss) is
    batched — one sync per [fsync_every] appends, plus {!sync} and
    {!close}.  All operations are thread-safe under an internal lock.

    Compaction rewrites the journal keeping only the latest record per
    key (tmp file + fsync + atomic rename), bounding replay time and
    disk use for long-lived servers. *)

type t

type replay = {
  entries : string list;  (** committed payloads, oldest first *)
  skipped_bytes : int;  (** torn/corrupt tail bytes ignored *)
  truncated : bool;  (** a damaged tail was found (and cut by {!open_}) *)
}

val replay_file : ?max_record:int -> string -> replay
(** Read-only replay.  A missing file is an empty journal.  Raises
    [Invalid_argument] only when the file exists with a full-length
    header that is not the journal magic (pointing the store at an
    arbitrary file must fail loudly, not destroy it); genuinely torn
    headers — short prefixes of the magic from a crash during creation —
    replay as empty.  Records are read one at a time, by the same reader
    {!compact} uses. *)

val open_ : ?fsync_every:int -> ?max_record:int -> string -> t * replay
(** Open for appending, creating the file (and its header) when
    missing.  The torn tail, if any, is truncated away first.
    [fsync_every] batches syncs (default 8, >= 1; 1 = sync every
    append); [max_record] bounds one payload (default 1 MiB). *)

val append : t -> string -> unit
(** Write one record (length + CRC + payload) and flush it to the OS.
    Raises [Invalid_argument] beyond [max_record], [Sys_error] after
    {!close}. *)

val sync : t -> unit
(** Force an [fsync] now. *)

val compact : t -> key:(string -> string option) -> unit
(** Rewrite keeping, for each distinct key, only the {e latest} record
    mapping to it, in journal order; records with [key = None] are
    dropped.  Streams the committed records twice, one at a time (the
    latest index per key, then a verbatim copy of the kept ones), so it
    holds one record and the key table in memory, never the file; like
    replay it stops at the first damaged record.  Atomic: readers of the
    path see either the old or the new journal. *)

val close : t -> unit
(** Sync and close.  Idempotent. *)

val size : t -> int
(** Bytes on disk (header + committed records). *)

val path : t -> string

type stats = {
  appended : int;
  syncs : int;
  compactions : int;
  replayed : int;  (** entries recovered by the {!open_} replay *)
  replay_skipped_bytes : int;
}

val stats : t -> stats
