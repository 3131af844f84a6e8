(** Front-end diagnostics: what the analysis can and cannot do with a
    given nest, reported before planning instead of as exceptions
    halfway through.

    Errors make the pipeline unusable on the nest (the paper's model is
    violated); warnings flag feasibility limits; infos note model
    assumptions worth knowing (e.g. Sec. III.C states its redundancy
    discussion for nonsingular reference matrices — our exact analysis
    does not need that assumption, but the note helps when comparing
    with the paper). *)

type severity = Error | Warning | Info

type issue = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["nonuniform-references"] *)
  message : string;
}

val check : Cf_loop.Nest.t -> issue list
(** All diagnostics for the nest, errors first. *)

val usable : issue list -> bool
(** No error present. *)

val explain_fallback :
  verdicts:Cf_mincomm.Mincomm.verdict list ->
  Cf_mincomm.Mincomm.t ->
  issue list
(** Why the theorems rejected the nest and what the fallback tier chose
    instead: one [theorem-rejected] (or [theorem-skipped]) info per
    failing theorem of [verdicts] (normally
    {!Cf_mincomm.Mincomm.verdicts} of the analysis value the plan came
    from), then a [fallback-chosen] info carrying the chosen
    candidate's origin, subspace and predicted message volume. *)

val pp_issue : Format.formatter -> issue -> unit
