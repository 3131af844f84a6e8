(** Differential oracles: named cross-layer properties every generated
    nest must satisfy.

    Each oracle compares two (or more) independent implementations of
    "the same answer" already present in the repo and returns a
    structured verdict.  A [Fail] carries a human-readable
    counterexample payload naming the first divergence; [Skip] means the
    property does not apply to this nest (e.g. the C back end refuses a
    plan that is not nonduplicate-communication-free) and counts as
    neither a pass nor a failure. *)

type verdict =
  | Pass
  | Skip of string  (** property not applicable; the reason *)
  | Fail of string  (** counterexample payload: what diverged, where *)

type t = {
  name : string;
  doc : string;  (** one line: which layers are being cross-checked *)
  check : Cf_loop.Nest.t -> verdict;
}

val all : t list
(** The registry, in documentation order:
    - [plan-vs-verify]: every Theorem 1–4 plan passes
      {!Cf_core.Verify.check_strategy} on the concrete iteration space;
    - [coset-parity]: closed-form {!Cf_core.Coset} indexing and the
      {!Cf_core.Iter_partition} view over its own index are both
      bit-for-bit identical to the materialized {!Refpartition}
      reference (ids, bases, sizes, member order, lookups), and
      {!Cf_core.Coset.numbering}, walked in lexicographic order, gives
      every iteration the reference's block id and reaches its block
      count;
    - [parexec-vs-seq]: the materialized reference executor
      ({!Refexec}, over {!Refpartition}) and the indexed engine both
      reproduce the sequential interpreter, with identical
      per-PE iteration counts; charged, the engine's bulk chunk sends
      and the reference's element-wise host sends leave bit-identical
      machines (message count and volume, distribution time, send
      trace, makespan, every PE's local memory);
    - [fault-recovery-identical]: a run with a killed PE recovers to the
      exact fault-free (sequential) result;
    - [delta-checkpoint-identical]: journaled delta checkpoints recover
      bit-for-bit like full deep copies under a seeded fault plan, on
      both backends and all four strategies;
    - [compiled-vs-interpreted]: the closure-specialized execution
      backend ({!Cf_exec.Compile}) is bit-for-bit identical to the AST
      interpreter — sequential memories on every nest, then
      machine-engine reports and simulated compute times; a nest with
      non-uniformly-generated references (which the planner rejects)
      is skipped after the sequential comparison;
    - [canon-relabel-roundtrip]: canonicalization is idempotent and
      renaming-invariant on every nest, and a plan relabeled onto a
      renamed nest still verifies;
    - [cgen-roundtrip]: block-major execution of the transformed
      [forall] nest (the iteration order the C back end emits) matches
      the sequential interpreter, and emission is deterministic;
    - [fallback-vs-seq]: the communication-minimal fallback tier's
      plan matches its unshared reference — every theorem verdict
      ({!Cf_mincomm.Mincomm.verdicts} of a fresh analysis value) equals
      that strategy's own {!Cf_core.Strategy.partitioning_space} answer
      (a minimal theorem skipped above
      {!Cf_dep.Exact.analysis_limit}), every ranked candidate's estimate
      equals the reference scorer {!Refpartition.estimate} over the
      materialized {!Refpartition}, and the choice and its block count
      follow from those partitions; the plan then runs
      bit-for-bit sequential on both backends and its serviced message
      count equals the planner's prediction;
    - [normalize-roundtrip]: every {!Cf_normalize} witness passes both
      machine checks — syntactic reconstruction of the original nest
      and bit-for-bit sequential replay through the witness data maps —
      and [Pipeline.plan_normalized] accepts exactly the nests
      normalization makes uniformly generated.  The only oracle meant
      for {e unnormalized} generator streams.

    Every oracle that plans needs uniformly generated references, the
    planner's precondition: [plan-vs-verify], [coset-parity],
    [parexec-vs-seq], [fault-recovery-identical],
    [delta-checkpoint-identical], [cgen-roundtrip] and
    [fallback-vs-seq] return [Skip] on any other nest before planning,
    and [compiled-vs-interpreted] and [canon-relabel-roundtrip] skip
    after their unplanned halves (the sequential comparison, the
    canonical-form checks). *)

val find : string -> t option
val names : string list

val check : t -> Cf_loop.Nest.t -> verdict
(** [check o nest] runs the oracle with exceptions captured: any escape
    (planner crash, arithmetic overflow guard, ...) is reported as
    [Fail] with the exception text — a crash on a generated nest is a
    finding, not a fuzzer error. *)
