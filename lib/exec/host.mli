(** Host arrays: the data a run starts from, held once on the host.

    Every array a nest references gets one host array over the box its
    access sites can reach (interval arithmetic over the iteration
    space's bounding box): a flat row-major buffer when that box passes
    {!Cf_machine.Machine.flat_worthy} against the number of site
    evaluations, a packed-key table otherwise, so a strided footprint
    never allocates its box.  Initial values are {e materialized}
    lazily: [init] runs at most once per element per host array, and
    only on elements some access actually reaches.

    Two consumers share the arrays.  The executor gathers each block's
    copy set out of them ({!gather}), strided segment by strided
    segment, straight into the chunk the copy will live in.  The golden
    run ({!Seqexec.golden}) executes the compiled body over a {!copy},
    through {!target}, and the cells it wrote ({!iter_written}) are
    what validation compares. *)

open Cf_loop

type t

val make :
  init:(string -> int array -> int) -> Compile.program -> Nest.t -> t
(** Host arrays for every array of the program, in {!Compile.arrays}
    slot order, nothing materialized yet. *)

val value : t -> int -> int array -> int
(** [value h slot el]: element [el]'s initial value, materialized (one
    [init] call) on first use.  Raises [Invalid_argument] for an
    element outside every access site's reach. *)

val copy : t -> t
(** A private copy (materialized values included) with no cell marked
    written: the golden run's memory. *)

val target : t -> Compile.target
(** Accessors over the host arrays, for {!Compile.bind}: a read of an
    element not yet materialized materializes it, a write sets the value
    without consulting [init], and every write marks its cell written.
    Flat host arrays expose their buffer as a {!Cf_machine.Machine.flat}
    view whose dirty bitmap is the written mark. *)

val iter_written : t -> (int -> int -> int -> unit) -> unit
(** [iter_written h f] calls [f slot packed v] once for every cell
    written through {!target}, with its packed coordinates
    ({!Cf_machine.Machine.pack_coords}) and final value; order
    unspecified. *)

(** {1 Gathering block copies} *)

type footprint
(** One array's accesses within one block, as strided segments: a
    segment is a first element [e], a per-step displacement [d] and a
    step count, covering [e], [e + d], …, [e + (count − 1)·d].  Tracks
    the bounding box from the segment endpoints and an upper bound on
    the distinct elements (the step counts, one for a standing
    segment). *)

val footprint : unit -> footprint

val reset : footprint -> unit
(** Empty the footprint for the next block, keeping its buffers. *)

val add : footprint -> int array -> int array -> count:int -> unit
(** [add fp e d ~count] records a segment; [e] and [d] are copied, so
    callers may pass scratch.  [count] must be positive. *)

val gather : t -> int -> footprint -> Cf_machine.Machine.chunk option
(** [gather h slot fp] copies the footprint's distinct elements of array
    [slot] out of the host arrays (materializing as it goes) into a
    fresh chunk: flat over the footprint's box when
    {!Cf_machine.Machine.flat_worthy} admits the element bound — a
    strided copy per segment — sparse otherwise.  The chunk's
    representation is exactly what {!Cf_machine.Machine.compact} would
    choose.  [None] for an empty footprint. *)

(** {1 Sequentially-last writers}

    What block-local validation compares the golden run against: for
    every cell a kept left-hand site writes, the value the block holding
    its sequentially-last write leaves in its own copy.  The executor's
    walk over each block's coset runs records every left-hand segment
    with its stamps ({!add_writes}); after the walk each cell has one
    owning block ({!settle}); right after that block runs, the executor
    copies the owned cells out of the block's copy ({!capture}). *)

type writers

val writers : t -> writers
(** Empty records over the host arrays' cells. *)

val add_writes :
  writers ->
  int ->
  int array ->
  int array ->
  count:int ->
  stamp:int ->
  dstamp:int ->
  block:int ->
  unit
(** [add_writes w slot e d ~count ~stamp ~dstamp ~block]: block [block]
    writes element [e + t·d] of array [slot] at stamp
    [stamp + t·dstamp], for [t < count] (a standing segment, [d = 0],
    writes one element [count] times).  A cell keeps the block of its
    largest stamp.  Not domain-safe: the walk is sequential. *)

val settle : writers -> blocks:int -> unit
(** Fix each cell's owner and list, per block [1 .. blocks], the cells
    it owns.  Call once, after the last {!add_writes}. *)

val capture : writers -> block:int -> (int -> int array -> int option) -> unit
(** [capture w ~block read] records [read slot el] for every cell
    [block] owns ([None]: nothing to record).  Blocks own disjoint
    cells, so captures of different blocks may run on different
    domains. *)

val captured : writers -> int -> int -> int option
(** [captured w slot packed]: the value captured for the cell with
    packed coordinates [packed], if any. *)
