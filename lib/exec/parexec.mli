(** Parallel execution of a partitioned nest on the simulated machine.

    The pipeline follows Section IV: allocate each iteration block and
    its data blocks to a processor, run the blocks, then check every
    written element against the sequential interpreter.  One engine
    does all of it, driven by the closed-form {!Cf_core.Coset} index,
    with two copy rules chosen by the entry point:

    - {b block-local copies} ({!execute}, {!execute_indexed}): each
      block gets private copies of everything it touches and runs
      block-major, touching only local memory — a remote access aborts
      the run, the executable form of "communication-free".  Blocks fan
      out over OCaml domains, and PE crashes are recovered in rounds.
      Validation compares every written cell with the value its
      sequentially-last writer left: the allocation walk records which
      block holds each cell's largest stamp, and that block's copy is
      read right after the block runs (under duplication a co-located
      replica of a sequentially-earlier write may overwrite a shared
      copy later in wall-clock order — a cross-block output dependence
      that replication legitimately absorbs).  Kernels bind with no
      per-write hook.
    - {b first-touch home copies} ({!execute_fallback}): each element
      gets one home copy, and iterations run in sequential order, each
      on its block's processor.  This is how communication-minimal
      fallback plans run; validation reads every home copy.

    [Cf_check.Refexec], a materialized-partition executor, is the
    independent reference the parity tests and the [parexec-vs-seq]
    oracle compare this engine against. *)

open Cf_core

type placement = int -> int
(** Block id (1-based) to processor rank. *)

val cyclic : nprocs:int -> placement
(** Round-robin: block [j] on processor [(j − 1) mod nprocs]. *)

type recovery = {
  crashed_pes : int list;  (** every PE that died, in ascending order *)
  rounds : int;  (** parallel execution rounds (1 = no mid-run crash) *)
  replayed_blocks : int;
      (** block re-executions forced by crashes (a block re-lost to a
          second crash counts again) *)
  redistributed_words : int;
      (** words replayed from the checkpoint onto surviving PEs *)
  checkpoints : int;
      (** snapshots taken, counting the mandatory post-distribution one *)
  checkpoint_words : int;
      (** total words captured across all checkpoints — for delta
          checkpoints this is O(writes since the previous one), for full
          copies O(resident memory) each *)
}
(** What fault recovery did during one block-local run. *)

type report = {
  machine : Cf_machine.Machine.t;
  remote_access : (int * string * int array) option;
    (** Some (pe, array, element): the run was NOT communication-free. *)
  mismatches : (string * int array * int option * int option) list;
    (** element, sequential value, captured parallel value; empty =
        correct *)
  per_pe_iterations : int array;
  recovery : recovery option;
    (** Present iff the machine carries a fault plan (block-local
        runs only); [crashed_pes = []] means no fault fired. *)
}

val execute :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?exact:Cf_dep.Exact.result ->
  ?allocate:bool ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  strategy:Strategy.t ->
  Iter_partition.t ->
  report
(** {!execute_indexed} over the partition's own coset index
    ({!Cf_core.Iter_partition.coset}), on the default domain count — the
    entry point for callers holding a planned
    {!Cf_core.Iter_partition}. *)

val execute_indexed :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?exact:Cf_dep.Exact.result ->
  ?allocate:bool ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  ?domains:int ->
  ?checkpoint_every:int ->
  ?checkpoint_mode:[ `Delta | `Full ] ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  strategy:Strategy.t ->
  Coset.t ->
  report
(** Block-local execution.  Allocates block-local copies (free of
    charge — distribution-cost experiments pre-place data with the host
    primitives and pass [~allocate:false], making any gap in the
    distribution surface as a remote access; plain per-processor names
    are then used, and the caller guarantees shared elements are
    read-only or block-exclusive), executes, merges, validates.  For the
    minimal strategies, redundant computations are skipped and
    validation restricts to elements the surviving computations write;
    [exact] supplies the redundancy analysis (computed on demand
    otherwise).  With [~charge_distribution:true] (and [allocate] left
    true), the initial placement is charged to the machine as one
    pipelined host message per block-local copy
    ({!Cf_machine.Machine.host_send_chunk}), in block-id then array
    order — a generic scatter, giving a full makespan (distribution +
    compute) for any plan.  Block [j]'s copy of array [A] is named
    [A#j] ({!Cf_machine.Machine.copy_id}: a number, named only in
    reports and traces).  [~validate:false] skips the last-writer
    record, the per-block captures and the sequential golden run —
    [mismatches] is then always empty and the report only certifies
    communication freedom, not value correctness (used for throughput
    measurements).

    Allocation reads initial values from {!Host} arrays — [init] runs
    at most once per distinct element the surviving accesses reach —
    and gathers each copy set along the block's coset runs straight
    into the chunk it will live in, flat or sparse by the
    {!Cf_machine.Machine.flat_worthy} policy, which gives one-element
    copies a flat buffer too.  The same walk records, for every cell a
    kept left-hand site writes, the block holding its largest
    (iteration, statement) stamp ({!Host.add_writes}) — with
    [allocate:false] the walk records only that.  Right after a block's
    iterations are charged, the cells it owns are read out of its own
    copy ({!Host.capture}): before any other block on its processor
    runs, so under [allocate:false] a shared plain-named copy still
    holds the block's own last write, and before a later crash can
    clear it.  A crashed block captures nothing; its replay captures on
    the survivor.  A cell the block's processor does not hold (a write
    serviced to another PE in [`Service] mode) reads as missing.
    Validation runs {!Seqexec.golden} over a copy of the same host
    arrays and compares every cell it wrote, by packed key, with the
    captured value; [mismatches] lists the differing cells sorted by
    array name, then element.

    Local memories are compacted after allocation and blocks run on
    [domains] OCaml domains (default
    [Domain.recommended_domain_count ()], capped by the machine size).
    Domain [d] owns the processors with [pe mod domains = d], so all
    per-processor state stays single-writer; per-processor cost totals
    and iteration counts are bit-identical for any domain count.  On a
    faulting run [remote_access] is the fault with the smallest block
    id — the one a one-domain run hits first — but counters reflect each
    domain's progress rather than the sequential abort point.

    [backend] (default [`Compiled]) selects the statement-body engine:
    [`Compiled] partially evaluates each body once per block through
    {!Compile} — subscript strides, operator dispatch, scalar and chunk
    lookups all resolved at bind time — and runs the resulting closures;
    [`Interpreted] walks the expression AST per iteration.  Both engines
    produce bit-for-bit identical reports (values, faulting element,
    counters); the [compiled-vs-interpreted] oracle in [cf_check]
    enforces it.

    {b Crash tolerance}: when the machine carries a
    {!Cf_machine.Machine.faults} plan (requires [allocate:true] —
    [Invalid_argument] otherwise), the engine checkpoints every local
    memory right after distribution and executes in rounds.  A PE dead
    during distribution is unmasked by its first host message; a PE
    crashing mid-run loses exactly its own block-local data
    (communication freedom localizes the damage).  Either way its
    pending blocks are reassigned over the surviving PEs by the same
    cyclic rule, lost chunks are replayed from the checkpoint as charged
    host messages, and the next round re-executes exactly the lost
    blocks.  Replay is deterministic, so the captured result — and hence
    [mismatches] against the sequential golden run — is identical to the
    fault-free run's.  Raises [Invalid_argument] when every processor
    crashes.

    [checkpoint_every] (default 0 = only the post-distribution
    snapshot) refreshes the checkpoint every so many rounds, taken at
    round {e start} — after the previous round's recovery settled, so a
    crashed block's partial writes are never captured — which makes
    recovery replay from the last checkpointed round instead of from
    post-distribution.  [checkpoint_mode] (default [`Delta]) selects
    {!Cf_machine.Machine.checkpoint}'s O(writes) delta capture or the
    full deep copy; the two recover bit-for-bit identically (the
    [delta-checkpoint-identical] oracle in [cf_check] enforces it) and
    differ only in [recovery.checkpoint_words]. *)

(** {1 Fallback execution (communication-minimal plans)} *)

val fallback_homes :
  placement:placement ->
  Iter_partition.t ->
  (string * (int, int) Hashtbl.t) array
(** The home map of a fallback plan: for every array (in
    {!Compile.arrays} order) a table from packed element coordinates
    ({!Cf_machine.Machine.pack_coords}) to the home PE — the processor
    of the block containing the {e first} access in sequential
    (iteration, statement, write-before-reads) order.  This single rule
    is shared by {!execute_fallback}'s allocation and [Cf_mincomm]'s
    volume estimator, which is what makes predicted message counts
    match simulated ones exactly. *)

val execute_fallback :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  Iter_partition.t ->
  report
(** Home-copy execution of a {e fallback} (not communication-free)
    partition: places one home copy of every accessed element under its
    plain array name per {!fallback_homes}, then walks the iteration
    space in sequential lexicographic order on one domain, running each
    iteration on its block's PE and charging it there — block-major
    execution cannot reproduce sequential values here, since cross-block
    flow dependences point both ways.  On a [`Service]-mode machine
    every access crossing a home boundary is serviced and charged as one
    message (query the machine's [serviced_*] counters); on a [`Strict]
    machine any such access aborts with [remote_access] set — a
    zero-communication fallback (e.g. of a communication-free nest) runs
    strict cleanly.  Validation compares every cell the sequential
    golden run wrote with its home copy; values are bit-for-bit
    sequential whenever no remote abort occurred, so [ok] holds on any
    serviced run.  With [~charge_distribution:true] the initial
    placement is charged as one pipelined host message per (array, PE),
    each home copy built from the {!Host} arrays and sent as one chunk.  [backend] as in
    {!execute_indexed}; both produce identical values and identical
    serviced-message counts.  Raises [Invalid_argument] on a machine
    with a fault plan: replaying only the lost blocks is wrong once flow
    dependences cross blocks. *)

val machine_target :
  Cf_machine.Machine.t ->
  pe:int ->
  copy_aids:int option array ->
  name:(int -> string) ->
  Compile.target
(** The accessor target compiled kernels bind against: array slot
    [slot] is PE [pe]'s chunk [copy_aids.(slot)], read and updated
    through {!Cf_machine.Machine.reader} and {!Cf_machine.Machine.writer}
    (and its {!Cf_machine.Machine.flat_view} when flat).  A [None] slot
    raises {!Cf_machine.Machine.Remote_access} naming array [name slot]
    on first access. *)

val ok : report -> bool
(** No remote access and no mismatch. *)

val pp_report : Format.formatter -> report -> unit
