open Cf_loop

type severity = Error | Warning | Info

type issue = {
  severity : severity;
  code : string;
  message : string;
}

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let rec has_div = function
  | Expr.Const _ | Expr.Scalar _ | Expr.Index _ | Expr.Read _ -> false
  | Expr.Binop (Expr.Div, _, _) -> true
  | Expr.Binop (_, a, b) -> has_div a || has_div b

let check nest =
  let issues = ref [] in
  let add severity code message = issues := { severity; code; message } :: !issues in
  (* Errors: the paper's reference model must hold. *)
  List.iter
    (fun a ->
      if not (Nest.uniformly_generated nest a) then
        add Error "nonuniform-references"
          (Printf.sprintf
             "array %s is referenced with several coefficient matrices; \
              the partitioning theory requires uniformly generated \
              references (one H per array)"
             a))
    (Nest.arrays nest);
  let cardinal = Nest.cardinal nest in
  if cardinal = 0 then
    add Error "empty-iteration-space"
      "the loop bounds admit no iteration; nothing to partition";
  (* Warnings: feasibility of the enumeration-backed pieces. *)
  if cardinal > Cf_dep.Exact.analysis_limit then
    add Warning "large-iteration-space"
      (Printf.sprintf
         "%d iterations: the minimal strategies, exact verification and \
          materialized partitions enumerate the space; expect them to be \
          slow or to hit the event cap"
         cardinal);
  (match Nest.out_of_bounds_accesses nest with
   | [] -> ()
   | offenders ->
     add Warning "out-of-declared-bounds"
       (Printf.sprintf
          "%d referenced element(s) fall outside the declared array bounds (e.g. %s)"
          (List.length offenders)
          (match offenders with
           | (a, el) :: _ ->
             Format.asprintf "%s%a" a Cf_linalg.Vec.pp_int el
           | [] -> "")));
  (* Infos: model notes. *)
  List.iter
    (fun a ->
      if Nest.uniformly_generated nest a then begin
        let h = Nest.h_matrix nest a in
        let m =
          Cf_linalg.Mat.of_rows
            (Array.to_list (Array.map Cf_linalg.Vec.of_int_array h))
        in
        if Cf_linalg.Mat.kernel m <> [] then
          add Info "singular-reference-matrix"
            (Printf.sprintf
               "H_%s is singular; Sec. III.C states redundancy elimination \
                for nonsingular H (the exact analysis here handles both)"
               a)
      end)
    (Nest.arrays nest);
  if List.exists (fun (s : Stmt.t) -> has_div s.rhs) nest.Nest.body then
    add Info "integer-division"
      "right-hand sides use '/': integer (truncating) division semantics";
  if not (Nest.is_rectangular nest) then
    add Info "non-rectangular"
      "loop bounds are affine in outer indices; iteration-difference \
       extents are bounded by enumeration";
  List.sort
    (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
    (List.rev !issues)

let usable issues = not (List.exists (fun i -> i.severity = Error) issues)

let explain_fallback ~verdicts:theorems (mc : Cf_mincomm.Mincomm.t) =
  let open Cf_mincomm.Mincomm in
  let rejections =
    List.filter_map
      (fun v ->
        match v.parallelism with
        | Some 0 ->
          Some
            {
              severity = Info;
              code = "theorem-rejected";
              message =
                Printf.sprintf
                  "Theorem %d (%s) rejects the nest: dim Psi = n, no \
                   parallel dimension survives"
                  (theorem_number v.strategy)
                  (Cf_core.Strategy.to_string v.strategy);
            }
        | None ->
          Some
            {
              severity = Info;
              code = "theorem-skipped";
              message =
                Printf.sprintf
                  "Theorem %d (%s) was not evaluated: the iteration space \
                   is too large for exact analysis"
                  (theorem_number v.strategy)
                  (Cf_core.Strategy.to_string v.strategy);
            }
        | Some _ -> None)
      theorems
  in
  let chosen =
    {
      severity = Info;
      code = "fallback-chosen";
      message =
        Format.asprintf
          "fallback partition %s = %a (%d block(s) on %d PE(s)) predicts \
           %d message(s) (%d remote read(s), %d remote write(s))"
          mc.choice.origin Cf_linalg.Subspace.pp mc.choice.space
          (Cf_core.Iter_partition.block_count mc.partition)
          mc.nprocs mc.estimate.messages mc.estimate.remote_reads
          mc.estimate.remote_writes;
    }
  in
  rejections @ [ chosen ]

let pp_issue ppf i =
  let tag =
    match i.severity with
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"
  in
  Format.fprintf ppf "%s [%s]: %s" tag i.code i.message
