(** The materialized reference executor.

    Executes a partition the way Section IV states it, over the
    materialized {!Refpartition} of the partition's nest and space
    (never the partition's own coset index): every block's data on its
    processor as block-local copies ([A#j]), blocks run one after
    another in id order, and each element's sequentially-latest write is
    checked against the sequential interpreter.  Of
    {!Cf_exec.Parexec}'s engine it shares only the accessor target the
    compiled kernels bind against — no coset index, no copy-set tables,
    no domains, no recovery rounds — so the parity tests, the
    [parexec-vs-seq] oracle and bench E14's baseline column compare the
    engine against an independent implementation, the way
    {!Refpartition} backs {!Cf_core.Coset}. *)

val execute :
  ?backend:Cf_exec.Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?exact:Cf_dep.Exact.result ->
  ?allocate:bool ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  machine:Cf_machine.Machine.t ->
  placement:Cf_exec.Parexec.placement ->
  strategy:Cf_core.Strategy.t ->
  Cf_core.Iter_partition.t ->
  Cf_exec.Parexec.report
(** Same contract as {!Cf_exec.Parexec.execute} on a machine without a
    fault plan (raises [Invalid_argument] otherwise): block-local copies
    placed free of charge, or with [~charge_distribution:true] as one
    host message per copy in block order; [~allocate:false] runs against
    caller-placed plain names; [~validate:false] skips the golden run.
    [`Compiled] binds each block's kernel through
    {!Cf_exec.Parexec.machine_target}; [`Interpreted] evaluates every
    subscript and access through the machine's string-keyed API. *)
