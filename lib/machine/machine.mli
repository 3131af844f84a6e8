(** A simulated distributed-memory multicomputer.

    Each processor has a private local memory holding the array elements
    assigned to it; there is no shared memory.  The host distributes
    initial data (each primitive charges the paper's cost model and
    stores the elements), node processors then compute on local data
    only: any access to an element absent from the local memory raises
    {!Remote_access} — the run-time proof that an allocation is
    communication-free.

    Time accounting: distribution time accumulates globally (the host is
    serial); compute time accumulates per processor; the makespan is
    distribution + the slowest processor.

    {b Fault injection}: a machine built with [?faults] consults the
    plan at every host send and every compute charge.  Host messages may
    be dropped or arrive corrupted — the host detects this and
    retransmits, charging [t_start + x·t_comm] again per attempt.  A PE
    scheduled to crash raises {!Pe_crashed} once its cumulative
    iteration count reaches its threshold (threshold 0: it is already
    dead when the host first sends to it).  A dead PE stays dead — its
    compute clock freezes at the crash point. *)

exception Remote_access of { pe : int; array : string; element : int array }

exception Pe_crashed of { pe : int }
(** The addressed processor is dead under the machine's fault plan.
    Raised by {!host_send} (node dead during distribution) and by
    {!run_iterations} (crash threshold reached). *)

type t

type comm_mode = [ `Strict | `Service ]
(** What a local miss means.  [`Strict] (the default, and the paper's
    model): any access to an element absent from the local memory raises
    {!Remote_access} — the run-time proof of communication freedom.
    [`Service]: the miss is routed as one point-to-point message to the
    element's {e home} (the PE holding a copy, found through a lazily
    built directory), charged at the paper's pipelined cost
    [t_start + hops·t_comm] on the {e accessing} PE's compute clock and
    counted in {!serviced_reads}/{!serviced_writes}.  Reads fetch the
    home value without caching it (every access pays); writes update the
    home copy in place.  An element held by {e no} PE still raises
    {!Remote_access} — servicing models planned residual communication,
    not allocation bugs. *)

val comm_mode_name : comm_mode -> string
val comm_mode_names : string list

val comm_mode_of_string : string -> comm_mode option
(** Recognizes ["strict"] and ["service"]; [None] otherwise. *)

val create :
  ?faults:Cf_fault.Fault.t ->
  ?obs:Cf_obs.Trace.t ->
  ?comm_mode:comm_mode ->
  Topology.t ->
  Cost.t ->
  t
(** Without [?faults] the machine never faults and behaves exactly as
    before.  [?obs] (default {!Cf_obs.Trace.null}) receives structured
    trace events for every distribution primitive, recovery resend and
    crash, stamped with {e simulated} seconds: host-side spans land on
    {!Cf_obs.Trace.host_lane} at the distribution clock, crash instants
    on the PE's own lane at its distribution + compute clock.  In
    [`Service] mode each serviced miss additionally emits a ["comm"]
    span ([fetch]/[update]) on the accessing PE's lane covering the
    charged message time.  [?comm_mode] defaults to [`Strict]. *)

val topology : t -> Topology.t
val cost : t -> Cost.t

val comm_mode : t -> comm_mode

val faults : t -> Cf_fault.Fault.t option
(** The fault plan the machine was created with, if any. *)

val obs : t -> Cf_obs.Trace.t
(** The machine's trace (shared with execution layers that instrument
    around it, so one run yields one coherent timeline). *)

val set_obs : t -> Cf_obs.Trace.t -> unit

val host_now : t -> float
(** The host lane's simulated clock: current distribution time. *)

val pe_now : t -> int -> float
(** [pe_now m pe]: PE [pe]'s simulated clock — distribution time plus
    its accumulated compute.  Monotone per PE; the timestamp domain for
    compute spans on lane [pe]. *)

(** {1 Local memory} *)

val store : t -> pe:int -> string -> int array -> int -> unit
(** [store m ~pe a el v] places element [a[el] = v] in [pe]'s local
    memory without charging communication (allocation/bookkeeping). *)

val read : t -> pe:int -> string -> int array -> int
(** Raises {!Remote_access} when the element is not local to [pe]. *)

val write : t -> pe:int -> string -> int array -> int -> unit
(** Updates [pe]'s local copy.  Raises {!Remote_access} when [pe] holds
    no copy of the element (ownership is fixed by allocation). *)

val holds : t -> pe:int -> string -> int array -> bool
val local_elements : t -> pe:int -> (string * int array * int) list

(** {1 Interned fast path}

    Local memories are keyed by dense integer array ids and packed
    coordinate ints — no polymorphic hashing of strings or arrays in
    the execution hot path.  The string API above delegates here. *)

val array_id : t -> string -> int
(** Interns the name (allocating a fresh id on first sight).  Interning
    mutates the machine: during parallel execution use
    {!find_array_id}, which is read-only.  A {e copy name} — [base#j]
    with [base] non-empty and free of ['#'], [j] a positive decimal
    without a leading zero — interns only [base] and returns
    [copy_id m (array_id m base) j]; every other name (["A#0"],
    ["A#01"], ["A#"], ["#3"], ["A#x"]) is an ordinary name. *)

val copy_id : t -> int -> int -> int
(** [copy_id m aid j] is the id of block [j]'s copy of the plainly
    named array [aid] — the array {!array_id} gives for ["A#j"] when
    [aid] is ["A"].  Pure arithmetic on the two numbers: no string, no
    table entry, so numbering thousands of block copies costs nothing.
    Raises [Invalid_argument] when [aid] is not an interned name free
    of ['#'] (a copy's own id included), or [j] is below 1. *)

val find_array_id : t -> string -> int option
(** {!array_id} without interning: [None] when the name, or a copy
    name's base, was never interned. *)

val array_name : t -> int -> string
(** The name of an id, a copy's ([base#j]) rendered on demand.
    Inverse of {!array_id}. *)

val pack_coords : int array -> int
(** Injective packing of element coordinates (arity included) into one
    int, suitable as a hash key.  Supports up to 7 dimensions and
    [59/d] bits per subscript; raises [Invalid_argument] beyond. *)

val unpack_coords : int -> int array
(** Inverse of {!pack_coords}. *)

val store_id : t -> pe:int -> int -> int array -> int -> unit
val read_id : t -> pe:int -> int -> int array -> int
val write_id : t -> pe:int -> int -> int array -> int -> unit
val holds_id : t -> pe:int -> int -> int array -> bool

(** {2 Block-bound accessors (compiled execution fast path)}

    Each factory resolves PE [pe]'s chunk for array [aid] {e once} and
    returns a closure that reads or updates it directly — no per-access
    memory-map lookup, and on flat chunks no coordinate packing at all.
    Miss semantics are exactly {!read_id}/{!write_id}'s ({!Remote_access}
    with a copied element; writers never create elements), including
    rank mismatches.  A returned closure is valid only while the chunk
    binding is unchanged — any {!store_id} to a new element,
    {!install_id}, {!compact}, {!clear_pe} or {!restore} on that
    (pe, array) invalidates it.  The executors re-bind per block, which
    also keeps crash recovery (chunks swapped between rounds) safe. *)

val reader : t -> pe:int -> int -> int array -> int
(** [reader m ~pe aid] is a bound form of [read_id m ~pe aid]; the
    element array is caller scratch (copied only on the miss path). *)

val writer : t -> pe:int -> int -> int array -> int -> unit
(** Bound form of {!write_id} (update-only: absent elements raise). *)

type flat = {
  lo : int array;
  extents : int array;
  data : int array;
  present : Bytes.t;
  dirty : Bytes.t;
}
(** A live view of a flat chunk's buffers, row-major over the box
    [lo .. lo + extents − 1]: element [el] sits at offset
    {!flat_offset}[ lo extents el] and is present iff its [present]
    byte is nonzero.  A holder may read and update present elements
    directly but must never create or delete elements — and every
    direct update {e must} set the matching [dirty] byte nonzero, or
    delta checkpoints will miss the write.  The compiled kernels read
    these views on their hit path and call {!reader}/{!writer} on a
    miss. *)

val flat_offset : int array -> int array -> int array -> int
(** [flat_offset lo extents el] is [Σ (el.(p) − lo.(p))·stride(p)] with
    row-major strides, or [-1] when [el] lies outside the box or has
    another rank. *)

val flat_view : t -> pe:int -> int -> flat option
(** [flat_view m ~pe aid] exposes a compacted chunk's live buffers;
    [None] for sparse or absent chunks.  Same validity window as the
    bound accessors above. *)

(** {2 Chunks built off-machine}

    A chunk is one array's elements on one processor, flat (a row-major
    buffer over the elements' bounding box with a presence bitmap) or
    sparse (a {!pack_coords} key to value table).  Executors build the
    chunk a copy will live in before placing it, and hand it over
    wholesale: {!install_chunk} for free placement, {!host_send_chunk}
    for a charged one. *)

type chunk

val flat_worthy : volume:int -> count:int -> bool
(** The flat-vs-sparse policy, the one {!compact} promotes by: a chunk
    of [count] elements whose bounding box holds [volume] cells is flat
    iff it fills at least an eighth of the box (any box of at most 1024
    cells qualifies, a one-element chunk included; none beyond
    2{^24}).  Monotone in [count], so a builder holding only an upper
    bound on the element count can rule flat storage out before
    allocating a box. *)

val sparse_chunk : (int, int) Hashtbl.t -> chunk
(** A sparse chunk over a {!pack_coords} key to value table (ownership
    taken).  {!compact} promotes it later if it qualifies. *)

val flat_chunk :
  lo:int array ->
  extents:int array ->
  data:int array ->
  present:Bytes.t ->
  count:int ->
  chunk
(** A chunk over the box [lo .. lo + extents − 1]: [data] row-major,
    an element present iff its [present] byte is nonzero, [count]
    present elements (buffers owned by the chunk from here on).  When
    [count] fails {!flat_worthy} the chunk is demoted to sparse, so a
    built chunk has exactly the representation {!compact} would give
    it.  Raises [Invalid_argument] when the buffers disagree with the
    box. *)

val install_chunk : t -> pe:int -> int -> chunk -> unit
(** [install_chunk m ~pe aid c] makes [c] PE [pe]'s local memory for
    array [aid], replacing any existing chunk, free of charge.  The
    journal records one wholesale replacement (the next delta capture
    copies the chunk once), the same entry {!recover_chunk} writes. *)

val install_id : t -> pe:int -> int -> (int, int) Hashtbl.t -> unit
(** [install_id m ~pe aid tbl] is [install_chunk m ~pe aid
    (sparse_chunk tbl)]: equivalent to [store_id] per binding, but with
    a single memory-map update. *)

val compact : t -> unit
(** Promote densely-populated local arrays to flat contiguous buffers
    addressed by affine linearization of their bounding box (with a
    presence bitmap, so [holds]/{!Remote_access} semantics are exactly
    preserved), by the {!flat_worthy} policy.  Call after distribution,
    before execution; stores landing outside a compacted box
    transparently fall back to sparse storage.  Chunks that are already
    flat (built by {!flat_chunk}) are left as they are.

    On a machine carrying a fault plan, compaction additionally folds
    the cold write journal into a fresh delta-chain base: the sparse
    tables promotion is about to discard are donated to the snapshot
    (zero copying for every promoted chunk), chunks that are born flat
    or stay sparse enter it as private copies, so the first delta
    checkpoint after [compact] captures only the writes made since. *)

(** {1 Host distribution (charges time, stores data)} *)

val host_send :
  t -> pe:int -> string -> (int array * int) list -> unit
(** One cut-through (pipelined) message from the host to [pe]:
    [t_start + (size + hops − 1)·t_comm] with hops = distance(0, pe) + 1
    (the host attaches at rank 0), [size] the list length.  Sending row
    blocks to each processor in turn reproduces the paper's
    [p·t_start + M²·t_comm] term of T2.  When [pe] holds nothing of the
    array yet, the elements arrive as one fresh chunk installed
    wholesale (as {!install_chunk}), flat or sparse as {!compact} would
    make it; otherwise they merge into the existing chunk cell by cell,
    as {!store} would.

    Under a fault plan: dropped/corrupted attempts are each charged in
    full before the successful retransmission (one fault-RNG draw per
    send); if [pe] is dead during distribution, one full attempt is
    charged (the missing ack reveals the dead node), nothing is stored,
    and {!Pe_crashed} is raised. *)

val host_send_chunk : t -> pe:int -> int -> chunk -> unit
(** [host_send_chunk m ~pe aid c] ships a built chunk to [pe] as one
    host message: exactly {!host_send}'s charge, trace event and fault
    behaviour for a message of as many elements as [c] holds, of array
    [array_name m aid], and exactly its delivery — wholesale when [pe]
    holds nothing of the array, merged cell by cell otherwise.  A PE
    dead during distribution stores nothing, so the caller still owns
    [c] and may send it elsewhere. *)

val host_broadcast : t -> string -> (int array * int) list -> unit
(** Broadcast to {e every} processor by store-and-forward flooding along
    mesh rows and columns: [t_start + hops·size·t_comm] with hops =
    diameter + 1 — the paper's [t_start + 2√p·M²·t_comm] term of T2. *)

val host_multicast :
  t -> pes:int list -> string -> (int array * int) list -> unit
(** Pipelined multicast of the same elements to a processor group: one
    pass down the column and one across the row retransmit each element
    twice, [t_start + (2·size + hops)·t_comm] — summing over the [√p]
    row (or column) groups reproduces the paper's
    [√p·t_start + 2√p·(M²/√p)·t_comm] term of T3. *)

(** {1 Compute accounting} *)

val run_iterations : t -> pe:int -> int -> unit
(** Charge [count] loop-body iterations to [pe].  Under a fault plan,
    if the charge would carry [pe]'s cumulative iteration count past its
    crash threshold [k], only the iterations up to [k] are charged and
    {!Pe_crashed} is raised; every subsequent call on the dead PE raises
    again with zero additional charge. *)

(** {1 Results} *)

val distribution_time : t -> float
val compute_time : t -> pe:int -> float
val max_compute_time : t -> float
val makespan : t -> float
val message_count : t -> int
val message_volume : t -> int
(** Total words sent by the host (retransmissions included).  All
    integer totals (messages, volume, retries, per-PE iterations)
    accumulate with {!Cost.sat_add}, so extreme [--scale] runs peg at
    [max_int] instead of wrapping negative. *)

val serviced_reads : t -> int
val serviced_writes : t -> int
(** Local misses serviced as messages (always 0 in [`Strict] mode).
    Reads fetch from the element's home PE, writes forward to it. *)

val serviced_messages : t -> int
(** [serviced_reads + serviced_writes] (saturating). *)

val serviced_words : t -> int
(** Words moved by the service channel — one per serviced access. *)

val service_time : t -> pe:int -> float
(** Simulated seconds PE [pe] spent waiting on serviced remote accesses
    (already included in {!compute_time}). *)

val retries : t -> int
(** Host message retransmissions forced by the fault plan (0 without
    one). *)

val dropped_messages : t -> int
(** Send attempts lost in flight. *)

val corrupted_messages : t -> int
(** Send attempts that arrived corrupted (detected and retransmitted). *)

val iterations_of : t -> pe:int -> int

val memory_words : t -> pe:int -> int
(** Number of array elements resident in [pe]'s local memory — the
    storage cost of replication. *)

val reset_stats : t -> unit
(** Clears timing, counters (including fault counters) and the
    distribution trace (memories are kept). *)

(** {1 Checkpoint and recovery}

    Every write — interpreter closures, compiled flat-view kernels,
    serviced remote writes — records into a per-(pe, array) journal:
    sparse writes as packed keys, flat writes as one byte in the
    chunk's dirty bitmap.  A [`Delta] checkpoint (the default) captures
    only the cells written since the previous capture — O(writes), not
    O(memory) — appending one delta to a chain rooted at a periodic
    full-snapshot base so replay stays bounded; [`Full] keeps the
    original whole-store deep copy as the differential reference.  When
    a PE later crashes, the data it owned is lost with it —
    communication freedom guarantees no other node depended on that
    copy, so recovery is purely local: clear the dead PE, replay its
    checkpointed chunks (base + live deltas) onto surviving PEs
    (charged as ordinary host messages), and re-execute the lost
    blocks. *)

type checkpoint

val checkpoint : ?mode:[ `Delta | `Full ] -> t -> checkpoint
(** Snapshot all local memories.  [`Full] deep-copies every chunk.
    [`Delta] (default) appends a delta of everything written since the
    previous capture to the live chain, starting a fresh full base when
    there is no chain yet (first checkpoint, or after {!restore}) or
    the chain has reached its bound.  Neither mode charges simulated
    time; the machine is unchanged apart from the journal window
    rolling over. *)

val restore : t -> checkpoint -> unit
(** Overwrite every PE's local memory with the checkpointed state
    (rebuilding base + deltas for delta checkpoints).  The restored
    representation is re-normalized under the {!compact} promotion
    policy, so a checkpoint taken before compaction does not resurrect
    the sparse layout.  Drops the live delta chain: the next [`Delta]
    checkpoint starts from a fresh base.  Raises [Invalid_argument]
    when the checkpoint came from a machine with a different processor
    count. *)

val checkpoint_words : checkpoint -> int
(** Words this checkpoint captured: total elements for a [`Full] (or
    fresh-base) snapshot, the delta payload — O(writes since the
    previous capture) — for a chained [`Delta] checkpoint. *)

val generation : t -> int
(** Monotone store generation: bumps at every checkpoint capture, chain
    restart, and restore. *)

val journal_words : t -> int
(** Words currently journaled but not yet captured — the payload the
    next [`Delta] checkpoint would copy.  Gauge for observability. *)

val clear_pe : t -> pe:int -> unit
(** Drop [pe]'s entire local memory — models the node's death.  The
    clear itself is journaled, so later delta captures replay it. *)

val recover_chunk : t -> checkpoint -> from_pe:int -> to_pe:int -> aid:int -> int
(** Replay the checkpointed chunk of array [aid] that lived on
    [from_pe] onto [to_pe] — rebuilt from base + live deltas for delta
    checkpoints — charging one pipelined host message for its size
    (subject to link faults) and recording a [Resend] event.  The
    installed chunk is journaled as a wholesale replacement.  Returns
    the number of words resent (0 when the snapshot holds no such
    chunk). *)

(** {1 Distribution trace} *)

type event =
  | Send of { pe : int; array : string; size : int }
  | Broadcast of { array : string; size : int }
  | Multicast of { pes : int list; array : string; size : int }
  | Resend of { pe : int; array : string; size : int }
      (** recovery replay of a lost chunk onto a surviving PE *)

val trace : t -> event list
(** Host distribution events in the order they were sent.  Events are
    recorded by array id and named here, when read (a copy as
    [base#j]). *)

val pp_event : Format.formatter -> event -> unit
val pp_stats : Format.formatter -> t -> unit
