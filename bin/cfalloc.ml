(* cfalloc - communication-free data allocation driver.

   Subcommands: analyze, transform, simulate, figures, compare, advise,
   cgen, demo.
   Loop nests are read from DSL files (see examples/loops/). *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let strategy_conv =
  let parse s =
    match
      List.find_opt
        (fun st -> Cf_core.Strategy.to_string st = s)
        Cf_core.Strategy.all
    with
    | Some st -> Ok st
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown strategy %S (expected one of: %s)" s
              (String.concat ", "
                 (List.map Cf_core.Strategy.to_string Cf_core.Strategy.all))))
  in
  let print ppf s = Format.fprintf ppf "%s" (Cf_core.Strategy.to_string s) in
  Arg.conv (parse, print)

let basis_conv =
  (* "1,1,0;-1,0,1" -> [ [|1;1;0|]; [|-1;0;1|] ] *)
  let parse s =
    match
      String.split_on_char ';' s
      |> List.map (fun row ->
             String.split_on_char ',' row
             |> List.map (fun x ->
                    let x = String.trim x in
                    if x = "" then failwith "empty entry" else int_of_string x)
             |> Array.of_list)
    with
    | exception _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad basis %S: expected integer rows like \"1,1,0;-1,0,1\"" s))
    | [] | [ [||] ] ->
      Error (`Msg (Printf.sprintf "bad basis %S: no rows given" s))
    | first :: rest as rows ->
      let width = Array.length first in
      (match
         List.find_opt (fun r -> Array.length r <> width) rest
       with
      | Some bad ->
        Error
          (`Msg
             (Printf.sprintf
                "bad basis %S: ragged rows (row of length %d after a row of \
                 length %d)"
                s (Array.length bad) width))
      | None -> Ok rows)
  in
  let print ppf rows =
    Format.fprintf ppf "%s"
      (String.concat ";"
         (List.map
            (fun r ->
              String.concat ","
                (Array.to_list (Array.map string_of_int r)))
            rows))
  in
  Arg.conv (parse, print)

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"Loop-nest DSL file.")

let strategy_arg =
  Arg.(value
       & opt strategy_conv Cf_core.Strategy.Nonduplicate
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Partitioning strategy: nonduplicate, duplicate, \
                 min-nonduplicate or min-duplicate.")

let radius_arg =
  Arg.(value & opt (some int) None
       & info [ "radius" ] ~docv:"N"
           ~doc:"Babai search radius for dependence witnesses.")

let basis_arg =
  Arg.(value & opt (some basis_conv) None
       & info [ "basis" ] ~docv:"ROWS"
           ~doc:"Override the Ker(Psi) basis, e.g. \"1,1,0;-1,0,1\".")

let procs_arg =
  Arg.(value & opt int 4
       & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processors.")

let logs_arg = Logs_cli.level ()

let load file = Cf_loop.Parse.program_of_file file

(* Apply an action to every nest of the program, with a banner when the
   file holds more than one. *)
let each_nest file f =
  let nests = load file in
  let many = List.length nests > 1 in
  List.iteri
    (fun k nest ->
      if many then Format.printf "@.===== nest %d =====@." (k + 1);
      f nest)
    nests

let handle f =
  try f (); 0
  with
  | Cf_loop.Parse.Error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Format.eprintf "error: %s@." msg;
    1
  | Unix.Unix_error (e, fn, arg) ->
    Format.eprintf "error: %s: %s%s@." fn (Unix.error_message e)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    1

(* analyze *)

let analyze_run level file strategy radius normalize =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
          Format.printf "@[<v>input loop:@,%a@]@." Cf_loop.Nest.pp nest;
          let nest =
            if not normalize then nest
            else begin
              let r = Cf_normalize.Normalize.normalize nest in
              Format.printf "@[<v>%a@]@." Cf_normalize.Normalize.describe r;
              (match Cf_normalize.Normalize.check r with
              | Ok () ->
                if r.Cf_normalize.Normalize.steps <> [] then
                  Format.printf "equivalence witness verified: true@."
              | Error msg -> failwith ("normalization witness failed: " ^ msg));
              if r.Cf_normalize.Normalize.steps <> [] then
                Format.printf "@[<v>normalized loop:@,%a@]@." Cf_loop.Nest.pp
                  r.Cf_normalize.Normalize.normalized;
              r.Cf_normalize.Normalize.normalized
            end
          in
          let issues = Cf_pipeline.Diagnose.check nest in
          List.iter
            (fun i -> Format.printf "%a@." Cf_pipeline.Diagnose.pp_issue i)
            issues;
          if not (Cf_pipeline.Diagnose.usable issues) then
            Format.printf "analysis skipped: the nest violates the model@."
          else begin
            let facts = Cf_core.Facts.make ?search_radius:radius nest in
            let plan = Cf_pipeline.Pipeline.plan_of_facts ~strategy facts in
            Format.printf "%a@." Cf_pipeline.Pipeline.describe plan;
            Format.printf "communication-free verified: %b@."
              (Cf_pipeline.Pipeline.verified plan);
            (* A rejected nest still gets a plan: report which theorem
               failed and what the communication-minimal tier chose. *)
            if Cf_pipeline.Pipeline.parallelism plan = 0 then begin
              let mc = Cf_mincomm.Mincomm.plan_of_facts facts in
              let verdicts = Cf_mincomm.Mincomm.verdicts facts in
              List.iter
                (fun i -> Format.printf "%a@." Cf_pipeline.Diagnose.pp_issue i)
                (Cf_pipeline.Diagnose.explain_fallback ~verdicts mc);
              Format.printf "@[<v>%a@]@."
                (Cf_mincomm.Mincomm.describe ~verdicts)
                mc
            end
          end))

let normalize_flag =
  Arg.(value & flag
       & info [ "normalize" ]
           ~doc:"Run the normalization front door first (fold, hoist, \
                 compress, shift), verify its equivalence witness, and \
                 analyze the normalized nest.")

let analyze_cmd =
  let doc = "Analyze a loop nest and print its communication-free plan." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const analyze_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ normalize_flag)

(* normalize *)

let normalize_run level file plan_after =
  setup_logs level;
  let failed = ref false in
  let code =
    handle (fun () ->
        each_nest file (fun nest ->
            Format.printf "@[<v>input loop:@,%a@]@." Cf_loop.Nest.pp nest;
            let r = Cf_normalize.Normalize.normalize nest in
            Format.printf "@[<v>%a@]@." Cf_normalize.Normalize.describe r;
            (match Cf_normalize.Normalize.check r with
            | Ok () -> Format.printf "equivalence witness verified: true@."
            | Error msg ->
              failed := true;
              Format.printf "equivalence witness FAILED: %s@." msg);
            if r.Cf_normalize.Normalize.steps <> [] then
              Format.printf "@[<v>normalized loop:@,%a@]@." Cf_loop.Nest.pp
                r.Cf_normalize.Normalize.normalized;
            if plan_after then
              match Cf_pipeline.Pipeline.plan_normalized nest with
              | Ok (_, planned) ->
                (match planned with
                | Cf_pipeline.Pipeline.Fallback (_, mc) ->
                  let verdicts =
                    Cf_mincomm.Mincomm.verdicts
                      (Cf_core.Facts.make mc.Cf_mincomm.Mincomm.nest)
                  in
                  Format.printf "@[<v>%a@]@."
                    (Cf_mincomm.Mincomm.describe ~verdicts)
                    mc
                | Cf_pipeline.Pipeline.Exact plan ->
                  Format.printf "%a@." Cf_pipeline.Pipeline.describe plan)
              | Error (_, reason) ->
                Format.printf "no plan: %s@." reason))
  in
  if code = 0 && !failed then 1 else code

let normalize_cmd =
  let doc =
    "Normalize a loop nest (fold unrolled bodies, hoist non-uniform \
     reads, compress strided subscripts, rebase shifted bounds) and \
     machine-check the equivalence witness each transform emits: the \
     inverted steps must reconstruct the input, and both nests must \
     produce bit-for-bit identical memory on the sequential executor."
  in
  let plan_arg =
    Arg.(value & flag
         & info [ "plan" ]
             ~doc:"Also run the planner on the normalized nest \
                   (Pipeline.plan_normalized) and print the outcome.")
  in
  Cmd.v (Cmd.info "normalize" ~doc)
    Term.(const normalize_run $ logs_arg $ file_arg $ plan_arg)

(* transform *)

let transform_run level file strategy radius basis procs =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
      let plan =
        Cf_pipeline.Pipeline.plan ~strategy ?basis ?search_radius:radius nest
      in
      Format.printf "%a@." Cf_transform.Parloop.pp plan.Cf_pipeline.Pipeline.parloop;
      let pl = plan.Cf_pipeline.Pipeline.parloop in
      if pl.Cf_transform.Parloop.n_forall > 0 then begin
        let grid = Cf_exec.Assign.grid_for pl ~procs in
        Format.printf "@.processor-assigned form (grid %s):@."
          (String.concat "x"
             (Array.to_list (Array.map string_of_int grid)));
        Format.printf "%a@." (Cf_transform.Parloop.pp_assigned ~grid) pl
      end))

let transform_cmd =
  let doc = "Emit the transformed forall nest (and its assigned form)." in
  Cmd.v (Cmd.info "transform" ~doc)
    Term.(const transform_run $ logs_arg $ file_arg $ strategy_arg
          $ radius_arg $ basis_arg $ procs_arg)

(* simulate *)

(* Fault-injected simulation: plan as usual, then run the crash-tolerant
   indexed engine on a machine carrying the fault plan.  The recovery
   must reproduce the fault-free result bit for bit, which pp_report's
   "results: match sequential" line certifies. *)
(* Hand-parsed like the fault flags: a bad value is a usage error (exit
   2), not a planner failure. *)
let backend_flag v k =
  match v with
  | None -> k `Compiled
  | Some s -> (
    match Cf_exec.Compile.backend_of_string s with
    | Some b -> k b
    | None ->
      Format.eprintf
        "error: --backend expects 'interpreted' or 'compiled', got %S@." s;
      2)

let backend_arg =
  Arg.(value & opt (some string) None
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Statement-body engine: $(b,compiled) (closure-specialized \
                 kernels, the default) or $(b,interpreted) (per-iteration \
                 AST walk, the differential oracle).")

let comm_mode_flag v k =
  match v with
  | None -> k `Service
  | Some s -> (
    match Cf_machine.Machine.comm_mode_of_string s with
    | Some m -> k m
    | None ->
      Format.eprintf "error: --comm-mode expects one of: %s (got %S)@."
        (String.concat ", " Cf_machine.Machine.comm_mode_names)
        s;
      2)

let fault_simulate ~backend ~strategy ~radius ~procs ~spec ~checkpoint_every
    nest =
  let plan = Cf_pipeline.Pipeline.plan ~strategy ?search_radius:radius nest in
  let fplan = Cf_fault.Fault.make ~procs spec in
  let machine =
    Cf_machine.Machine.create ~faults:fplan
      (Cf_machine.Topology.linear procs)
      Cf_machine.Cost.transputer
  in
  let coset = Cf_core.Coset.make nest plan.Cf_pipeline.Pipeline.space in
  (* Distribution is charged so the host's messages actually traverse
     the faulty links (and a PE dead on arrival is unmasked by its first
     message, not first iteration). *)
  let report =
    Cf_exec.Parexec.execute_indexed ~backend
      ?exact:plan.Cf_pipeline.Pipeline.exact ~charge_distribution:true
      ~checkpoint_every ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
      ~strategy coset
  in
  Format.printf "%a@." Cf_fault.Fault.pp fplan;
  Format.printf "@[<v>%a@]@." Cf_exec.Parexec.pp_report report;
  Format.printf "link: %d retransmission(s) (%d dropped, %d corrupted)@."
    (Cf_machine.Machine.retries machine)
    (Cf_machine.Machine.dropped_messages machine)
    (Cf_machine.Machine.corrupted_messages machine);
  Format.printf "makespan: %.6fs@." (Cf_machine.Machine.makespan machine);
  Format.printf "recovered output identical: %b@."
    (Cf_exec.Parexec.ok report)

let simulate_run level file strategy radius procs backend comm_mode fault_seed
    kill_pe kill_after checkpoint_every =
  setup_logs level;
  backend_flag backend @@ fun backend ->
  comm_mode_flag comm_mode @@ fun comm_mode ->
  (* The fault flags are parsed by hand so a malformed value yields a
     clear diagnostic and exit code 2 (usage error), distinct from the
     planner-failure exit code 1. *)
  let int_flag name v k =
    match v with
    | None -> k None
    | Some s -> (
      match int_of_string_opt s with
      | Some n -> k (Some n)
      | None ->
        Format.eprintf "error: --%s expects an integer, got %S@." name s;
        2)
  in
  int_flag "fault-seed" fault_seed @@ fun seed ->
  int_flag "kill-pe" kill_pe @@ fun kill_pe ->
  int_flag "kill-after" kill_after @@ fun kill_after ->
  int_flag "checkpoint-every" checkpoint_every @@ fun cadence ->
  let checkpoint_every = Option.value cadence ~default:0 in
  if checkpoint_every < 0 then begin
    Format.eprintf "error: --checkpoint-every must be >= 0@.";
    2
  end
  else
  match (seed, kill_pe, kill_after) with
  (* Checkpoints exist only to recover from faults. *)
  | _ when cadence <> None && seed = None && kill_pe = None ->
    Format.eprintf
      "error: --checkpoint-every requires --kill-pe or --fault-seed@.";
    2
  | None, None, None ->
    handle (fun () ->
        each_nest file (fun nest ->
            let planned =
              Cf_pipeline.Pipeline.plan_serve ~strategy ?search_radius:radius
                ~nprocs:procs nest
            in
            (match Cf_pipeline.Pipeline.fallback_of planned with
            | None -> ()
            | Some mc ->
              Format.printf
                "theorems reject the nest; serving fallback %s (predicted \
                 %d message(s))@."
                mc.Cf_mincomm.Mincomm.choice.Cf_mincomm.Mincomm.origin
                mc.Cf_mincomm.Mincomm.estimate.Cf_mincomm.Mincomm.messages);
            let sim =
              Cf_pipeline.Pipeline.simulate_serve ~backend ~procs ~comm_mode
                planned
            in
            Format.printf "@[<v>%a@]@." Cf_exec.Parexec.pp_report
              sim.Cf_pipeline.Pipeline.report;
            (match Cf_pipeline.Pipeline.fallback_of planned with
            | None -> ()
            | Some _ ->
              let m =
                sim.Cf_pipeline.Pipeline.report.Cf_exec.Parexec.machine
              in
              Format.printf
                "serviced: %d message(s) (%d read(s), %d write(s))@."
                (Cf_machine.Machine.serviced_messages m)
                (Cf_machine.Machine.serviced_reads m)
                (Cf_machine.Machine.serviced_writes m));
            Format.printf "balance: %a@." Cf_exec.Balance.pp
              sim.Cf_pipeline.Pipeline.balance;
            Format.printf "makespan: %.6fs@." sim.Cf_pipeline.Pipeline.makespan))
  | _ when kill_after <> None && kill_pe = None ->
    Format.eprintf "error: --kill-after requires --kill-pe@.";
    2
  | _ when (match kill_pe with Some pe -> pe < 0 || pe >= procs | None -> false)
    ->
    Format.eprintf "error: --kill-pe %d is outside the machine (0..%d)@."
      (Option.get kill_pe) (procs - 1);
    2
  | _ when (match kill_after with Some k -> k < 0 | None -> false) ->
    Format.eprintf "error: --kill-after must be >= 0@.";
    2
  | _ ->
    let spec =
      {
        Cf_fault.Fault.none with
        seed = Option.value seed ~default:0;
        kills =
          (match kill_pe with
          | Some pe -> [ (pe, Option.value kill_after ~default:0) ]
          | None -> []);
        (* A seed without explicit kills draws a random schedule; with
           --kill-pe alone the run is purely deterministic. *)
        crash_rate = (if seed = None then 0. else 0.25);
        crash_after_max = (if seed = None then 0 else 8);
        drop_rate = (if seed = None then 0. else 0.05);
        corrupt_rate = (if seed = None then 0. else 0.02);
      }
    in
    handle (fun () ->
        each_nest file
          (fault_simulate ~backend ~strategy ~radius ~procs ~spec
             ~checkpoint_every))

let simulate_cmd =
  let doc = "Execute the plan on the simulated multicomputer and verify it." in
  let fault_seed_arg =
    Arg.(value & opt (some string) None
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Enable seeded fault injection: random PE crashes and \
                   host-link drop/corruption drawn deterministically from \
                   $(docv); the run recovers and must reproduce the \
                   fault-free result.")
  in
  let kill_pe_arg =
    Arg.(value & opt (some string) None
         & info [ "kill-pe" ] ~docv:"PE"
             ~doc:"Deterministically crash processor $(docv) (combine with \
                   --kill-after).")
  in
  let kill_after_arg =
    Arg.(value & opt (some string) None
         & info [ "kill-after" ] ~docv:"K"
             ~doc:"Iterations the killed PE completes before dying (default \
                   0: dead during distribution); requires --kill-pe.")
  in
  let comm_mode_arg =
    Arg.(value & opt (some string) None
         & info [ "comm-mode" ] ~docv:"MODE"
             ~doc:"Remote-access policy for fallback \
                   (non-communication-free) plans: $(b,service) (default: \
                   each remote access is serviced as a charged message) or \
                   $(b,strict) (any remote access aborts the run).  Exact \
                   plans never communicate, so the flag is inert for them.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Refresh the recovery checkpoint every $(docv) execution \
                   rounds (delta capture: only words written since the \
                   previous checkpoint), so a crash replays from the last \
                   checkpointed round.  Default 0: only the \
                   post-distribution snapshot.  Requires --kill-pe or \
                   --fault-seed.")
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const simulate_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ procs_arg $ backend_arg $ comm_mode_arg $ fault_seed_arg
          $ kill_pe_arg $ kill_after_arg $ checkpoint_every_arg)

(* trace *)

(* Shared with simulate: build the fault spec from the hand-parsed
   flags (None when no fault flag was given). *)
let fault_spec ~seed ~kill_pe ~kill_after =
  match (seed, kill_pe, kill_after) with
  | None, None, None -> None
  | _ ->
    Some
      {
        Cf_fault.Fault.none with
        seed = Option.value seed ~default:0;
        kills =
          (match kill_pe with
          | Some pe -> [ (pe, Option.value kill_after ~default:0) ]
          | None -> []);
        crash_rate = (if seed = None then 0. else 0.25);
        crash_after_max = (if seed = None then 0 else 8);
        drop_rate = (if seed = None then 0. else 0.05);
        corrupt_rate = (if seed = None then 0. else 0.02);
      }

let trace_run level file strategy radius procs fault_seed kill_pe kill_after
    out fmt capacity =
  setup_logs level;
  let int_flag name v k =
    match v with
    | None -> k None
    | Some s -> (
      match int_of_string_opt s with
      | Some n -> k (Some n)
      | None ->
        Format.eprintf "error: --%s expects an integer, got %S@." name s;
        2)
  in
  int_flag "fault-seed" fault_seed @@ fun seed ->
  int_flag "kill-pe" kill_pe @@ fun kill_pe ->
  int_flag "kill-after" kill_after @@ fun kill_after ->
  if capacity < 1 then begin
    Format.eprintf "error: --capacity must be >= 1@.";
    2
  end
  else if kill_after <> None && kill_pe = None then begin
    Format.eprintf "error: --kill-after requires --kill-pe@.";
    2
  end
  else begin
    (* The planner lane runs on wall clock rebased to the start of the
       run; machine lanes carry simulated seconds (see DESIGN.md). *)
    let t0 = Unix.gettimeofday () in
    let trace =
      Cf_obs.Trace.make
        ~clock:(fun () -> Unix.gettimeofday () -. t0)
        (Cf_obs.Trace.ring ~capacity)
    in
    handle (fun () ->
        each_nest file (fun nest ->
            let plan =
              Cf_pipeline.Pipeline.plan ~obs:trace ~strategy
                ?search_radius:radius nest
            in
            let faults =
              Option.map (Cf_fault.Fault.make ~procs)
                (fault_spec ~seed ~kill_pe ~kill_after)
            in
            let machine =
              Cf_machine.Machine.create ?faults ~obs:trace
                (Cf_machine.Topology.linear procs)
                Cf_machine.Cost.transputer
            in
            let coset =
              Cf_core.Coset.make nest plan.Cf_pipeline.Pipeline.space
            in
            let report =
              Cf_exec.Parexec.execute_indexed
                ?exact:plan.Cf_pipeline.Pipeline.exact
                ~charge_distribution:true ~machine
                ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
                ~strategy coset
            in
            Format.printf "@[<v>%a@]@." Cf_exec.Parexec.pp_report report;
            Format.printf "makespan: %.6fs@."
              (Cf_machine.Machine.makespan machine));
        let evs = Cf_obs.Trace.events trace in
        let data =
          match fmt with
          | "chrome" -> Cf_obs.Trace.to_chrome ~process_name:"cfalloc" evs
          | "jsonl" -> Cf_obs.Trace.to_jsonl evs
          | f -> invalid_arg (Printf.sprintf "unknown trace format %S" f)
        in
        let oc = open_out out in
        output_string oc data;
        close_out oc;
        Format.printf "wrote %s (%d event(s), %d dropped, %s format)@." out
          (List.length evs)
          (Cf_obs.Trace.dropped trace)
          fmt)
  end

let trace_cmd =
  let doc =
    "Execute the plan with the observability subsystem attached and \
     export the run as a per-PE timeline (Chrome trace_event JSON, \
     loadable in Perfetto / chrome://tracing, or JSONL)."
  in
  let fault_seed_arg =
    Arg.(value & opt (some string) None
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seeded fault injection, as in $(b,simulate): the crash \
                   and recovery-replay events appear on the timeline.")
  in
  let kill_pe_arg =
    Arg.(value & opt (some string) None
         & info [ "kill-pe" ] ~docv:"PE"
             ~doc:"Deterministically crash processor $(docv).")
  in
  let kill_after_arg =
    Arg.(value & opt (some string) None
         & info [ "kill-after" ] ~docv:"K"
             ~doc:"Iterations the killed PE completes before dying; \
                   requires --kill-pe.")
  in
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Output file (default trace.json).")
  in
  let fmt_arg =
    Arg.(value & opt (enum [ ("chrome", "chrome"); ("jsonl", "jsonl") ])
           "chrome"
         & info [ "trace-format" ] ~docv:"FORMAT"
             ~doc:"Export format: $(b,chrome) (default) or $(b,jsonl).")
  in
  let capacity_arg =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Ring-buffer capacity in events; the oldest events are \
                   dropped beyond it (default 65536).")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ procs_arg $ fault_seed_arg $ kill_pe_arg $ kill_after_arg
          $ out_arg $ fmt_arg $ capacity_arg)

(* trace-check *)

let trace_check_run level file =
  setup_logs level;
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Cf_obs.Trace.validate_chrome s with
  | Ok n ->
    Format.printf "valid Chrome trace: %d event(s)@." n;
    0
  | Error msg ->
    Format.eprintf "invalid trace: %s@." msg;
    1

let trace_check_cmd =
  let doc =
    "Validate a Chrome trace_event JSON file (as written by $(b,trace)): \
     well-formed JSON, required event fields, per-lane monotone \
     timestamps, balanced begin/end pairs."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Trace JSON file.")
  in
  Cmd.v (Cmd.info "trace-check" ~doc)
    Term.(const trace_check_run $ logs_arg $ file_arg)

(* bench-diff *)

(* Flatten a JSON report to (path, leaf) pairs.  A list item that is an
   object is keyed by the report's row-key fields it has (the first
   value bare, the rest as name=value) so rows pair up even if
   reordered; any other item is keyed by its position. *)
let rec json_leaves ~row_key prefix j acc =
  let bare = function Cf_obs.Json.Str s -> s | v -> Cf_obs.Json.to_string v in
  match j with
  | Cf_obs.Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) -> json_leaves ~row_key (prefix ^ "." ^ k) v acc)
      acc fields
  | Cf_obs.Json.List items ->
    List.fold_left
      (fun (i, acc) item ->
        let key =
          match
            List.filter_map
              (fun f ->
                Option.map (fun v -> (f, v)) (Cf_obs.Json.member f item))
              row_key
          with
          | [] -> string_of_int i
          | (_, v) :: rest ->
            String.concat ","
              (bare v :: List.map (fun (f, v) -> f ^ "=" ^ bare v) rest)
        in
        (i + 1, json_leaves ~row_key (prefix ^ "[" ^ key ^ "]") item acc))
      (0, acc) items
    |> snd
  | leaf -> (prefix, leaf) :: acc

let bench_diff_run level baseline current warn_pct =
  setup_logs level;
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Cf_obs.Json.parse s with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  match (read baseline, read current) with
  | Error e, _ | _, Error e ->
    Format.eprintf "error: %s@." e;
    1
  | Ok base, Ok cur ->
    (* The baseline names its own deterministic keys and row keys. *)
    let names key =
      match Cf_obs.Json.member key base with
      | Some (Cf_obs.Json.List l) -> List.filter_map Cf_obs.Json.str l
      | _ -> []
    in
    let gated = names "gated" and row_key = names "row_key" in
    let is_gated path =
      match String.rindex_opt path '.' with
      | Some i ->
        List.mem (String.sub path (i + 1) (String.length path - i - 1)) gated
      | None -> false
    in
    let show = Cf_obs.Json.to_string in
    let base_leaves = json_leaves ~row_key "" base [] in
    let cur_leaves = json_leaves ~row_key "" cur [] in
    let warnings = ref 0 and compared = ref 0 and failures = ref 0 in
    List.iter
      (fun (path, b) ->
        match (List.assoc_opt path cur_leaves, b) with
        | None, _ ->
          if is_gated path then begin
            incr failures;
            Format.printf "FAIL %s: %s -> missing@." path (show b)
          end
        | Some c, _ when is_gated path ->
          incr compared;
          if c <> b then begin
            incr failures;
            Format.printf "FAIL %s: %s -> %s (gated metric changed)@." path
              (show b) (show c)
          end
        | Some (Cf_obs.Json.Num c), Cf_obs.Json.Num b ->
          incr compared;
          (* Tiny absolute values are all noise; only flag changes on
             metrics of measurable magnitude. *)
          if Float.abs b > 1e-9 then begin
            let pct = 100. *. (c -. b) /. Float.abs b in
            if Float.abs pct > warn_pct then begin
              incr warnings;
              Format.printf "WARN %s: %g -> %g (%+.1f%%)@." path b c pct
            end
          end
        | Some c, _ ->
          incr compared;
          if c <> b then begin
            incr warnings;
            Format.printf "WARN %s: %s -> %s@." path (show b) (show c)
          end)
      base_leaves;
    Format.printf
      "bench-diff: %d metric(s) compared, %d warning(s) at the %.0f%% \
       threshold (advisory only), %d gated metric(s) changed@."
      !compared !warnings warn_pct !failures;
    if !failures > 0 then 1 else 0

let bench_diff_cmd =
  let doc =
    "Compare a benchmark JSON report against a committed baseline.  The \
     baseline names its deterministic keys in its $(b,gated) list and \
     the fields that identify a row in its $(b,row_key) list.  Any \
     change to a gated value (number, boolean or string), or a gated \
     value missing from the current report, is flagged FAIL and the \
     command exits 1.  Every other number that moved more than the \
     threshold, and every other value that changed, is flagged WARN \
     (advisory).  A baseline without a gated list is fully advisory."
  in
  let baseline_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASELINE" ~doc:"Committed baseline JSON file.")
  in
  let current_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CURRENT" ~doc:"Freshly produced JSON file.")
  in
  let warn_arg =
    Arg.(value & opt float 20.
         & info [ "warn-pct" ] ~docv:"PCT"
             ~doc:"Relative-change threshold in percent (default 20).")
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(const bench_diff_run $ logs_arg $ baseline_arg $ current_arg
          $ warn_arg)

(* figures *)

let figures_run level file strategy radius svg_dir =
  setup_logs level;
  handle (fun () ->
      let nest_index = ref 0 in
      each_nest file (fun nest ->
      incr nest_index;
      let plan = Cf_pipeline.Pipeline.plan ~strategy ?search_radius:radius nest in
      let partition = plan.Cf_pipeline.Pipeline.partition in
      List.iter
        (fun a ->
          print_string (Cf_report.Figures.data_space nest a);
          print_string (Cf_report.Figures.data_partition nest partition a);
          print_string (Cf_report.Figures.reference_graph nest a);
          print_newline ())
        (Cf_loop.Nest.arrays nest);
      print_string (Cf_report.Figures.iteration_partition partition);
      match svg_dir with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let save name contents =
          let path =
            Filename.concat dir
              (Printf.sprintf "nest%d-%s.svg" !nest_index name)
          in
          let oc = open_out path in
          output_string oc contents;
          close_out oc;
          Format.printf "wrote %s@." path
        in
        (try save "iterations" (Cf_report.Svg.iteration_partition partition)
         with Invalid_argument _ -> ());
        List.iter
          (fun a ->
            try save ("data-" ^ a) (Cf_report.Svg.data_partition nest partition a)
            with Invalid_argument _ -> ())
          (Cf_loop.Nest.arrays nest)))

let figures_cmd =
  let doc = "Render data/iteration partitions and reference graphs." in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"DIR"
             ~doc:"Also write SVG renderings of the 2-D figures to $(docv).")
  in
  Cmd.v (Cmd.info "figures" ~doc)
    Term.(const figures_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ svg_arg)

(* compare *)

let compare_run level file =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
      let exact = Cf_dep.Exact.analyze nest in
      Format.printf "%-18s %-5s %-10s %-8s@." "strategy" "dim" "parallel"
        "blocks";
      List.iter
        (fun strategy ->
          let psi =
            Cf_core.Strategy.partitioning_space ~exact strategy nest
          in
          let p = Cf_core.Iter_partition.make nest psi in
          Format.printf "%-18s %-5d %-10d %-8d@."
            (Cf_core.Strategy.to_string strategy)
            (Cf_linalg.Subspace.dim psi)
            (Cf_core.Strategy.parallelism_degree psi)
            (Cf_core.Iter_partition.block_count p))
        Cf_core.Strategy.all;
      Format.printf "%a@." Cf_baseline.Hyperplane.pp_comparison
        (Cf_baseline.Hyperplane.compare_on ~name:"input" nest)))

let compare_cmd =
  let doc =
    "Compare the four strategies and the R&S hyperplane baseline."
  in
  Cmd.v (Cmd.info "compare" ~doc) Term.(const compare_run $ logs_arg $ file_arg)

(* advise *)

let advise_run level file procs =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
          Format.printf
            "duplication candidates for p = %d (best first):@." procs;
          List.iteri
            (fun k c ->
              Format.printf "  %d. %a@." (k + 1) Cf_exec.Advisor.pp_candidate c)
            (Cf_exec.Advisor.candidates ~procs nest)))

let advise_cmd =
  let doc =
    "Rank array-duplication choices by estimated execution time \
     (Section IV's which-array-to-replicate question)."
  in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(const advise_run $ logs_arg $ file_arg $ procs_arg)

(* cgen *)

let cgen_run level file strategy radius basis procs use_grid openmp =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
          let plan =
            Cf_pipeline.Pipeline.plan ~strategy ?basis ?search_radius:radius
              nest
          in
          let pl = plan.Cf_pipeline.Pipeline.parloop in
          let grid =
            if use_grid && pl.Cf_transform.Parloop.n_forall > 0 then
              Some (Cf_exec.Assign.grid_for pl ~procs)
            else None
          in
          print_string (Cf_cgen.Cgen.emit ?grid ~openmp pl)))

let cgen_cmd =
  let doc =
    "Emit a self-contained C program for the plan (requires a \
     nonduplicate communication-free partition)."
  in
  let grid_arg =
    Arg.(value & flag
         & info [ "grid" ]
             ~doc:"Wrap the forall levels in explicit SPMD processor loops \
                   with the cyclic assignment.")
  in
  let openmp_arg =
    Arg.(value & flag
         & info [ "openmp" ]
             ~doc:"Annotate the outer forall with #pragma omp parallel for \
                   (compile with -fopenmp; race-free by Theorem 1).")
  in
  Cmd.v (Cmd.info "cgen" ~doc)
    Term.(const cgen_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ basis_arg $ procs_arg $ grid_arg $ openmp_arg)

(* allocate *)

let allocate_run level file strategy radius procs =
  setup_logs level;
  handle (fun () ->
      each_nest file (fun nest ->
          let plan =
            Cf_pipeline.Pipeline.plan ~strategy ?search_radius:radius nest
          in
          print_string
            (Cf_report.Allocmap.render plan.Cf_pipeline.Pipeline.partition
               ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
               ~nprocs:procs)))

let allocate_cmd =
  let doc =
    "Print the per-processor data allocation map (which elements live      where) under cyclic block placement."
  in
  Cmd.v (Cmd.info "allocate" ~doc)
    Term.(const allocate_run $ logs_arg $ file_arg $ strategy_arg $ radius_arg
          $ procs_arg)

(* distribute *)

let distribute_run level file strategy =
  setup_logs level;
  handle (fun () ->
      let src =
        let ic = open_in file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let l = Cf_loop.Parse.imperfect src in
      Format.printf "@[<v>input (imperfect) nest:@,%a@]@." Cf_loop.Imperfect.pp
        l;
      match Cf_frontend.Distribution.distribute_checked l with
      | Error msg -> Format.printf "distribution rejected: %s@." msg
      | Ok nests ->
        Format.printf "distributed into %d perfect nest(s):@."
          (List.length nests);
        List.iteri
          (fun k nest ->
            Format.printf "@.===== nest %d =====@." (k + 1);
            Format.printf "@[<v>%a@]@." Cf_loop.Nest.pp nest;
            let plan = Cf_pipeline.Pipeline.plan ~strategy nest in
            Format.printf "%a@." Cf_pipeline.Pipeline.describe plan)
          nests)

let distribute_cmd =
  let doc =
    "Split an imperfect nest into perfect nests by loop distribution      (checked against the reference interpretation), then analyze each."
  in
  Cmd.v (Cmd.info "distribute" ~doc)
    Term.(const distribute_run $ logs_arg $ file_arg $ strategy_arg)

(* batch *)

module Service = Cf_service.Service

let batch_run level dir domains queue_depth cache_capacity no_cache timeout
    backend_opt =
  setup_logs level;
  backend_flag backend_opt @@ fun backend ->
  (* Execution is checked per plan only when --backend was given
     explicitly: the default batch output stays a pure planning report. *)
  let check_exec = backend_opt <> None in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Format.eprintf "error: %s is not a directory@." dir;
    1
  end
  else begin
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".loop")
      |> List.sort String.compare
    in
    if files = [] then begin
      Format.eprintf "error: no .loop files in %s@." dir;
      1
    end
    else begin
      (* Parse everything up front: a malformed file is reported (with
         the parser's line/column diagnostic) and skipped, not fatal. *)
      let parse_failures = ref 0 in
      let nests =
        List.concat_map
          (fun f ->
            let path = Filename.concat dir f in
            match Cf_loop.Parse.program_of_file path with
            | [ nest ] -> [ (f, nest) ]
            | nests ->
              List.mapi
                (fun k nest -> (Printf.sprintf "%s#%d" f (k + 1), nest))
                nests
            | exception Cf_loop.Parse.Error msg ->
              incr parse_failures;
              Format.eprintf "%s: parse error: %s@." f msg;
              [])
          files
      in
      let svc =
        Service.create ?domains
          ?queue_depth
          ~cache:(if no_cache then None else Some cache_capacity)
          ()
      in
      let bad_outcomes = ref 0 in
      List.iter
        (fun strategy ->
          Format.printf "@.== strategy %s ==@."
            (Cf_core.Strategy.to_string strategy);
          let outcomes =
            Service.plan_many ~strategy ?timeout svc (List.map snd nests)
          in
          List.iter2
            (fun (name, _) outcome ->
              (match outcome with
              | Service.Done c ->
                let exec =
                  if check_exec then begin
                    let sim =
                      Cf_pipeline.Pipeline.simulate ~backend c.Service.plan
                    in
                    let ok =
                      Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report
                    in
                    if not ok then incr bad_outcomes;
                    if ok then "  exec=ok" else "  exec=FAIL"
                  end
                  else ""
                in
                Format.printf "%-24s %a  parallel=%d blocks=%d verified=%b%s@."
                  name Service.pp_outcome outcome
                  (Cf_pipeline.Pipeline.parallelism c.Service.plan)
                  (Cf_pipeline.Pipeline.block_count c.Service.plan)
                  (Cf_pipeline.Pipeline.verified c.Service.plan)
                  exec
              | _ ->
                incr bad_outcomes;
                Format.printf "%-24s %a@." name Service.pp_outcome outcome))
            nests outcomes)
        Cf_core.Strategy.all;
      Service.drain svc;
      Format.printf "@.%a@." Service.pp_stats (Service.stats svc);
      Service.shutdown svc;
      if !parse_failures > 0 || !bad_outcomes > 0 then 1 else 0
    end
  end

let batch_cmd =
  let doc =
    "Plan every .loop file in a directory across all four strategies \
     through the concurrent planning service (shared plan cache, worker \
     domains, built-in metrics)."
  in
  let dir_arg =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"Directory of loop-nest DSL files.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains (default: the runtime's recommended \
                   domain count).")
  in
  let queue_arg =
    Arg.(value & opt (some int) None
         & info [ "queue" ] ~docv:"N"
             ~doc:"Submission-queue bound (default 64).")
  in
  let cache_capacity_arg =
    Arg.(value & opt int 1024
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Plan-cache capacity in entries (default 1024).")
  in
  let no_cache_arg =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Disable the canonical-form plan cache.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request deadline; requests still queued when it \
                   expires complete as timed out.")
  in
  let batch_backend_arg =
    Arg.(value & opt (some string) None
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Also execute each planned nest on the simulated machine \
                   with this statement-body engine ($(b,compiled) or \
                   $(b,interpreted)) and verify the result; execution \
                   failures count as bad outcomes.")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const batch_run $ logs_arg $ dir_arg $ domains_arg $ queue_arg
          $ cache_capacity_arg $ no_cache_arg $ timeout_arg
          $ batch_backend_arg)

(* fuzz *)

let fuzz_run level seed count depth oracle_names corpus_dir json max_shrink
    unnormalized =
  setup_logs level;
  let unknown = ref [] in
  let oracles =
    match oracle_names with
    | None ->
      if unnormalized then
        (* The other oracles assume uniformly generated input and would
           drown the report in spurious failures on a raw unnormalized
           stream; an explicit --oracle list overrides this default. *)
        List.filter
          (fun o -> o.Cf_check.Oracle.name = "normalize-roundtrip")
          Cf_check.Oracle.all
      else Cf_check.Oracle.all
    | Some names ->
      String.split_on_char ',' names
      |> List.filter_map (fun n ->
             let n = String.trim n in
             if n = "" then None
             else
               match Cf_check.Oracle.find n with
               | Some o -> Some o
               | None ->
                 unknown := n :: !unknown;
                 None)
  in
  if !unknown <> [] then begin
    Format.eprintf "error: unknown oracle(s) %s (known: %s)@."
      (String.concat ", " (List.rev !unknown))
      (String.concat ", " Cf_check.Oracle.names);
    2
  end
  else if oracles = [] then begin
    Format.eprintf "error: no oracles selected@.";
    2
  end
  else if count < 1 then begin
    Format.eprintf "error: --count must be >= 1@.";
    2
  end
  else begin
    let params =
      match depth with
      | None -> Cf_check.Fuzz.mixed_depths
      | Some d when d >= 1 && d <= 3 ->
        fun _ -> Cf_check.Gen.default ~depth:d
      | Some d ->
        Format.eprintf "error: --depth must be 1, 2 or 3 (got %d)@." d;
        exit 2
    in
    let config =
      {
        Cf_check.Fuzz.seed;
        count;
        params;
        oracles;
        corpus_dir = Some corpus_dir;
        max_shrink_steps = max_shrink;
        unnormalized;
      }
    in
    let t0 = Unix.gettimeofday () in
    let stats = Cf_check.Fuzz.run config in
    let elapsed = Unix.gettimeofday () -. t0 in
    if json then
      print_endline
        (Cf_obs.Json.to_string (Cf_check.Fuzz.to_json config stats))
    else begin
      Format.printf
        "fuzz: seed %d, %d case(s) x %d oracle(s): %d passed, %d skipped, \
         %d counterexample(s) (%.0f cases/s)@."
        seed stats.Cf_check.Fuzz.cases (List.length oracles)
        stats.Cf_check.Fuzz.checks stats.Cf_check.Fuzz.skips
        (List.length stats.Cf_check.Fuzz.failures)
        (float_of_int stats.Cf_check.Fuzz.cases /. Float.max elapsed 1e-9);
      List.iter
        (fun (f : Cf_check.Fuzz.failure) ->
          Format.printf
            "@.counterexample: oracle %s, case %d (%d shrink step(s))@.%s@.%s"
            f.Cf_check.Fuzz.oracle f.Cf_check.Fuzz.case
            f.Cf_check.Fuzz.shrink_steps f.Cf_check.Fuzz.shrunk_detail
            (Cf_check.Corpus.render f.Cf_check.Fuzz.shrunk);
          match f.Cf_check.Fuzz.path with
          | Some p -> Format.printf "saved to %s@." p
          | None -> ())
        stats.Cf_check.Fuzz.failures
    end;
    if stats.Cf_check.Fuzz.failures <> [] then 2 else 0
  end

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generate seeded random loop nests and \
     cross-check every layer of the system against its independent \
     oracle (planner vs verifier, closed-form coset index vs \
     materialized partition, parallel vs sequential execution, fault \
     recovery, canonical-form round-trips, C back end).  Failing nests \
     are minimized and persisted as replayable .loop regression tests; \
     exit code 2 signals a surviving counterexample."
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Random seed; each (seed, case) pair is replayable.")
  in
  let count_arg =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"K"
             ~doc:"Number of nests to generate (default 200).")
  in
  let depth_arg =
    Arg.(value & opt (some int) None
         & info [ "depth" ] ~docv:"D"
             ~doc:"Fix the nest depth to $(docv) (1-3); by default the \
                   run cycles through depths 1, 2 and 3.")
  in
  let oracle_arg =
    Arg.(value & opt (some string) None
         & info [ "oracle" ] ~docv:"NAME[,NAME...]"
             ~doc:(Printf.sprintf
                     "Comma-separated oracles to run (default all): %s."
                     (String.concat ", " Cf_check.Oracle.names)))
  in
  let corpus_arg =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus-dir" ] ~docv:"PATH"
             ~doc:"Directory for minimized counterexamples (created on \
                   demand, written only on failure; default test/corpus, \
                   where dune runtest replays them).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let max_shrink_arg =
    Arg.(value & opt int 500
         & info [ "max-shrink-steps" ] ~docv:"N"
             ~doc:"Bound on greedy shrink steps per counterexample \
                   (default 500).")
  in
  let unnormalized_arg =
    Arg.(value & flag
         & info [ "unnormalized" ]
             ~doc:"Generate unnormalized nests (unrolled bodies, \
                   non-unit strides, shifted bounds, skewed reads) via \
                   a separate replayable stream.  Unless --oracle is \
                   given, only the normalize-roundtrip oracle runs: the \
                   others assume uniformly generated input.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const fuzz_run $ logs_arg $ seed_arg $ count_arg $ depth_arg
          $ oracle_arg $ corpus_arg $ json_arg $ max_shrink_arg
          $ unnormalized_arg)

(* demo *)

let demo_run level =
  setup_logs level;
  handle (fun () ->
      List.iter
        (fun k ->
          Format.printf "== %s: %s ==@." k.Cf_workloads.Workloads.name
            k.Cf_workloads.Workloads.description;
          List.iter
            (fun r ->
              Format.printf "  %a@." Cf_workloads.Workloads.pp_study_row r)
            (Cf_workloads.Workloads.study k);
          Format.printf "  %a@.@." Cf_baseline.Hyperplane.pp_comparison
            (Cf_workloads.Workloads.baseline_comparison k))
        Cf_workloads.Workloads.all)

let demo_cmd =
  let doc = "Run the strategy study over the built-in workload kernels." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo_run $ logs_arg)

(* serve / client *)

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "bad address %S: expected HOST:PORT" s))
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
      | _ -> Error (`Msg (Printf.sprintf "bad port in %S" s)))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tenant_conv =
  let parse s =
    match Cf_server.Admission.tenant_of_spec s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (t : Cf_server.Admission.tenant) =
    Format.fprintf ppf "%s" t.name
  in
  Arg.conv (parse, print)

let serve_run level socket tcp journal domains queue cache fsync_every
    max_frame read_timeout capacity shed_start tenants tenants_file =
  setup_logs level;
  handle (fun () ->
      if socket = None && tcp = None then
        invalid_arg "serve: pass --socket and/or --tcp";
      let config =
        {
          Cf_server.Server.default_config with
          unix_socket = socket;
          tcp;
          journal;
          domains;
          queue_depth = queue;
          cache = (if cache = 0 then None else Some cache);
          fsync_every;
          max_frame;
          read_timeout;
          admit_capacity = capacity;
          shed_start;
          tenants;
          tenants_file;
        }
      in
      let server = Cf_server.Server.start config in
      (match journal with
      | Some path ->
        let r = Cf_server.Server.replay_report server in
        Format.printf
          "journal %s: replayed %d entries (%d warmed, %d bad), skipped %d \
           tail byte(s)@."
          path r.entries r.warmed r.bad_entries r.skipped_bytes
      | None -> ());
      Option.iter (fun p -> Format.printf "listening on unix:%s@." p) socket;
      Option.iter
        (fun (h, _) ->
          Format.printf "listening on tcp:%s:%d@." h
            (Option.value ~default:0 (Cf_server.Server.port server)))
        tcp;
      Format.printf "ready@.";
      (* Keep stdout line-buffered progress visible to process managers
         (the CI smoke test waits for "ready"). *)
      let stop_requested = ref false and reload_requested = ref false in
      let request_stop _ = stop_requested := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      (* SIGHUP = hot tenant-table reload; performed on the main loop,
         not in the handler (signal context can't take locks safely). *)
      (try
         Sys.set_signal Sys.sighup
           (Sys.Signal_handle (fun _ -> reload_requested := true))
       with Invalid_argument _ -> ());
      while not !stop_requested do
        if !reload_requested then begin
          reload_requested := false;
          match Cf_server.Server.reload_tenants server with
          | Ok n -> Format.printf "reloaded %d tenant spec(s)@." n
          | Error msg -> Format.printf "tenant reload failed: %s@." msg
        end;
        try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Format.printf "shutting down@.";
      Cf_server.Server.stop server)

let serve_cmd =
  let doc = "Run the crash-safe planning server." in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP (port 0 = kernel-assigned).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Append cache-miss plans to this journal and replay it on boot, \
             so cache warmth survives crashes.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Submission queue depth.")
  in
  let cache =
    Arg.(
      value & opt int 1024
      & info [ "cache" ] ~docv:"N" ~doc:"Plan cache capacity (0 disables).")
  in
  let fsync_every =
    Arg.(
      value & opt int 8
      & info [ "fsync-every" ] ~docv:"N"
          ~doc:"Batch journal fsyncs: one sync per N appends.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Cf_server.Frame.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted frame.")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-connection read timeout.")
  in
  let capacity =
    Arg.(
      value & opt int 8
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Outstanding admitted plan requests before load-shedding.")
  in
  let shed_start =
    Arg.(
      value & opt float 0.5
      & info [ "shed-start" ] ~docv:"OCC"
          ~doc:"Occupancy (0..1) where priority shedding begins.")
  in
  let tenants =
    Arg.(
      value
      & opt_all tenant_conv []
      & info [ "tenant" ] ~docv:"SPEC"
          ~doc:
            "Tenant limits, e.g. gold:priority=9,weight=4,rate=100,burst=20 \
             (repeatable).")
  in
  let tenants_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "tenants-file" ] ~docv:"PATH"
          ~doc:
            "Read tenant specs (one per line, # comments) from $(docv); \
             re-read on the $(b,reload) protocol op or SIGHUP without \
             dropping live connections.  Overrides --tenant.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ logs_arg $ socket $ tcp $ journal $ domains $ queue
      $ cache $ fsync_every $ max_frame $ read_timeout $ capacity $ shed_start
      $ tenants $ tenants_file)

let client_run level socket tcp tenant op strategy radius timeout serve count
    files =
  setup_logs level;
  let connect () =
    match (socket, tcp) with
    | Some path, _ -> Cf_server.Client.connect_unix ~tenant path
    | None, Some (host, port) -> Cf_server.Client.connect_tcp ~tenant host port
    | None, None -> Error "pass --socket or --tcp"
  in
  handle (fun () ->
      match connect () with
      | Error msg -> failwith msg
      | Ok client ->
        Fun.protect
          ~finally:(fun () -> Cf_server.Client.close client)
          (fun () ->
            let failures = ref 0 in
            let show = function
              | Ok reply ->
                Format.printf "%s@." (Cf_obs.Json.to_string reply);
                if not (Cf_server.Protocol.is_ok reply) then incr failures
              | Error msg ->
                Format.eprintf "error: %s@." msg;
                incr failures
            in
            (match op with
            | "stats" -> show (Cf_server.Client.stats client)
            | "health" -> show (Cf_server.Client.health client)
            | "reload" -> show (Cf_server.Client.reload client)
            | "plan" ->
              if files = [] then invalid_arg "client: no nest files given";
              List.iter
                (fun file ->
                  List.iter
                    (fun nest ->
                      let src =
                        Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp nest
                      in
                      for _ = 1 to count do
                        show
                          (Cf_server.Client.plan ~serve ~strategy
                             ?search_radius:radius ?timeout client src)
                      done)
                    (load file))
                files
            | op -> invalid_arg (Printf.sprintf "client: unknown op %S" op));
            if !failures > 0 then
              failwith
                (Printf.sprintf "%d request(s) did not complete ok" !failures)))

let client_cmd =
  let doc = "Send requests to a running planning server." in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Dial a Unix-domain socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Dial TCP.")
  in
  let tenant =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant identity for admission.")
  in
  let op =
    Arg.(
      value & opt string "plan"
      & info [ "op" ] ~docv:"OP"
          ~doc:"One of plan, stats, health, reload.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Cf_core.Strategy.Nonduplicate
      & info [ "strategy" ] ~docv:"STRATEGY" ~doc:"Planning strategy.")
  in
  let radius =
    Arg.(
      value
      & opt (some int) None
      & info [ "radius" ] ~docv:"N" ~doc:"Partitioning-space search radius.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request deadline.")
  in
  let serve =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Use plan_serve: degrade theorem-rejected nests to the fallback \
             tier.")
  in
  let count =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"N" ~doc:"Repeat each plan request N times.")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Nest DSL files.")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client_run $ logs_arg $ socket $ tcp $ tenant $ op $ strategy
      $ radius $ timeout $ serve $ count $ files)

let main =
  let doc = "communication-free data allocation for nested loops" in
  let info = Cmd.info "cfalloc" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ analyze_cmd; normalize_cmd; transform_cmd; simulate_cmd; trace_cmd;
      trace_check_cmd; figures_cmd; compare_cmd; advise_cmd; allocate_cmd;
      cgen_cmd; distribute_cmd; batch_cmd; bench_diff_cmd; fuzz_cmd;
      serve_cmd; client_cmd; demo_cmd ]

let () = exit (Cmd.eval' main)
