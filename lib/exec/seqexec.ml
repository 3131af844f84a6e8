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

(* The compiled engine: one packed-int table per array, the statement
   bodies bound once through {!Compile} (loop bounds, subscripts,
   operator dispatch and scalar lookups all resolved up front), and the
   result decoded into the interpreter's string-keyed memory at the
   end.  Reads of never-written elements fall back to [init] on every
   miss, exactly as the interpreter does. *)
let run_compiled ?(init = default_init) ?(scalar = default_scalar) ~keep t =
  let prog = Compile.make t in
  let arrays = Compile.arrays prog in
  let tbls =
    Array.map (fun _ -> (Hashtbl.create 256 : (int, int) Hashtbl.t)) arrays
  in
  let reader slot =
    let tbl = tbls.(slot) in
    let name = arrays.(slot) in
    fun el ->
      match Hashtbl.find_opt tbl (Cf_machine.Machine.pack_coords el) with
      | Some v -> v
      | None -> init name (Array.copy el)
  in
  let writer slot =
    let tbl = tbls.(slot) in
    fun el v -> Hashtbl.replace tbl (Cf_machine.Machine.pack_coords el) v
  in
  let via1 f slot =
    let g = f slot in
    let sc = [| 0 |] in
    fun x ->
      sc.(0) <- x;
      g sc
  in
  let via2 f slot =
    let g = f slot in
    let sc = [| 0; 0 |] in
    fun x0 x1 ->
      sc.(0) <- x0;
      sc.(1) <- x1;
      g sc
  in
  let via1w slot =
    let g = writer slot in
    let sc = [| 0 |] in
    fun x v ->
      sc.(0) <- x;
      g sc v
  in
  let via2w slot =
    let g = writer slot in
    let sc = [| 0; 0 |] in
    fun x0 x1 v ->
      sc.(0) <- x0;
      sc.(1) <- x1;
      g sc v
  in
  let target =
    {
      Compile.reader;
      reader1 = via1 reader;
      reader2 = via2 reader;
      writer;
      writer1 = via1w;
      writer2 = via2w;
      flat = (fun _ -> None);
    }
  in
  let kernel = Compile.bind ?keep ~scalar ~target prog in
  Compile.iter_space t kernel;
  let memory : memory = Hashtbl.create 256 in
  Array.iteri
    (fun slot tbl ->
      let a = arrays.(slot) in
      Hashtbl.iter
        (fun packed v ->
          Hashtbl.replace memory
            (a, Array.to_list (Cf_machine.Machine.unpack_coords packed))
            v)
        tbl)
    tbls;
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
