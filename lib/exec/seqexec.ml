open Cf_loop

type memory = (string * int list, int) Hashtbl.t

(* Small deterministic mixers: results must be stable across runs and
   spread enough that accidental equality cannot mask a wrong read. *)
let default_init a el =
  let h = Hashtbl.hash (a, Array.to_list el) in
  1 + (h mod 997)

let default_scalar s = 1 + (Hashtbl.hash s mod 97)

let run_general ?(init = default_init) ?(scalar = default_scalar) ~keep t =
  let memory : memory = Hashtbl.create 256 in
  let idx = Nest.indices t in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) idx;
  let body = Array.of_list t.Nest.body in
  Nest.iter_space t (fun iter ->
      let index v =
        match Hashtbl.find_opt pos v with
        | Some k -> iter.(k)
        | None -> invalid_arg ("Seqexec: unbound index " ^ v)
      in
      Array.iteri
        (fun si (s : Stmt.t) ->
          if keep ~stmt_index:si iter then begin
            let read r =
              let el = Aref.eval index r in
              match Hashtbl.find_opt memory (r.Aref.array, Array.to_list el)
              with
              | Some v -> v
              | None -> init r.Aref.array el
            in
            let v = Expr.eval ~read ~scalar ~index s.rhs in
            let el = Aref.eval index s.lhs in
            Hashtbl.replace memory (s.lhs.Aref.array, Array.to_list el) v
          end)
        body);
  memory

(* The compiled golden run: the statement bodies bound once through
   {!Compile} against a private copy of the host arrays, the space
   walked in innermost runs so the batched run kernels apply.  Reads of
   never-written elements take the host's materialized initial value. *)
let golden ~keep ~scalar prog nest host =
  let mem = Host.copy host in
  let _, run = Compile.bind_run ?keep ~scalar ~target:(Host.target mem) prog in
  Compile.iter_space_runs nest run;
  mem

let run_compiled ?(init = default_init) ?(scalar = default_scalar) ~keep t =
  let prog = Compile.make t in
  let arrays = Compile.arrays prog in
  let mem = golden ~keep ~scalar prog t (Host.make ~init prog t) in
  let memory : memory = Hashtbl.create 256 in
  Host.iter_written mem (fun slot packed v ->
      Hashtbl.replace memory
        (arrays.(slot), Array.to_list (Cf_machine.Machine.unpack_coords packed))
        v);
  memory

let run_backend ~backend ?init ?scalar ~keep t =
  match backend with
  | `Interpreted -> run_general ?init ?scalar ~keep:(Option.value keep
      ~default:(fun ~stmt_index:_ _ -> true)) t
  (* Subscripts beyond the packed-coordinate range (arity > 7) only the
     interpreter can key; such nests never reach the machine anyway. *)
  | `Compiled when Compile.max_rank (Compile.make t) > 7 ->
    run_general ?init ?scalar ~keep:(Option.value keep
      ~default:(fun ~stmt_index:_ _ -> true)) t
  | `Compiled -> run_compiled ?init ?scalar ~keep t

let run ?(backend = `Compiled) ?init ?scalar t =
  run_backend ~backend ?init ?scalar ~keep:None t

let run_filtered ?(backend = `Compiled) ?init ?scalar ~keep t =
  run_backend ~backend ?init ?scalar ~keep:(Some keep) t

let lookup (m : memory) a el = Hashtbl.find_opt m (a, Array.to_list el)

let bindings (m : memory) =
  Hashtbl.fold (fun (a, el) v acc -> (a, Array.of_list el, v) :: acc) m []
  |> List.sort compare

let equal_on_written (a : memory) (b : memory) = bindings a = bindings b
