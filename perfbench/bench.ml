(* Benchmark entry point:

     bench.exe --workload plan|simulate|serve --seed N --seconds N --trace 0|1
               [--server-cpu N]

   Runs from the root of a source checkout, after
   [dune build ./perfbench/bench.exe ./bin/cfalloc.exe]; prints
   human-readable lines, then one JSON result object as the last line.
   Exit status: 0 when every output check passed, 1 when one failed, 2
   on a usage error. *)

let workloads = [ "plan"; "simulate"; "serve" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload plan|simulate|serve --seed N --seconds N \
     --trace 0|1 [--server-cpu N]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and server_cpu = ref None in
  let int_arg name v r =
    match int_of_string_opt v with
    | Some n -> r := Some n
    | None ->
      Printf.eprintf "error: %s expects an integer, got %S\n" name v;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if not (List.mem v workloads) then begin
        Printf.eprintf "error: unknown workload %S\n" v;
        usage ()
      end;
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest -> int_arg "--seed" v seed; parse rest
    | "--seconds" :: v :: rest -> int_arg "--seconds" v seconds; parse rest
    | "--trace" :: v :: rest -> int_arg "--trace" v trace; parse rest
    | "--server-cpu" :: v :: rest -> int_arg "--server-cpu" v server_cpu; parse rest
    | arg :: _ ->
      Printf.eprintf "error: unexpected argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some ((0 | 1) as trace)
    when seconds >= 1 ->
    let root = "." and seconds = float_of_int seconds in
    let out = Filename.concat root ".perfbench" in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let trace_path =
      Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed)
    in
    let traced = trace = 1 in
    Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" workload seed
      seconds trace;
    let run () =
      match workload with
      | "plan" ->
        if traced then Plan_wl.run_traced ~root ~seed ~seconds ~trace_path
        else Plan_wl.run_untraced ~root ~seed ~seconds
      | "simulate" ->
        if traced then Sim_wl.run_traced ~seed ~seconds ~trace_path
        else Sim_wl.run_untraced ~seed ~seconds
      | _ ->
        let cfalloc = "_build/default/bin/cfalloc.exe" in
        Serve_wl.run ~root ~seed ~seconds ~cfalloc ~server_cpu:!server_cpu ~out
          ~trace_path:(if traced then Some trace_path else None)
    in
    (* A failure inside a workload is a failed run (1), not a usage error
       (2, OCaml's own code for an uncaught exception). *)
    exit
      (try run ()
       with e ->
         Printf.printf "error: %s\n%!" (Printexc.to_string e);
         1)
  | _ -> usage ()
