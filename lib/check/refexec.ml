open Cf_core
open Cf_loop
module Machine = Cf_machine.Machine
module Compile = Cf_exec.Compile
module Parexec = Cf_exec.Parexec
module Seqexec = Cf_exec.Seqexec

let execute ?(backend = `Compiled) ?(init = Seqexec.default_init)
    ?(scalar = Seqexec.default_scalar) ?exact ?(allocate = true)
    ?(charge_distribution = false) ?(validate = true) ~machine ~placement
    ~strategy partition =
  if Machine.faults machine <> None then
    invalid_arg "Refexec.execute: fault plans are not modelled";
  let nest = Iter_partition.nest partition in
  let keep_opt =
    if not (Strategy.uses_exact_analysis strategy) then None
    else
      let e =
        match exact with Some e -> e | None -> Cf_dep.Exact.analyze nest
      in
      Some
        (fun ~stmt_index iter ->
          not (Cf_dep.Exact.is_redundant e ~stmt_index iter))
  in
  let keep ~stmt_index iter =
    match keep_opt with Some f -> f ~stmt_index iter | None -> true
  in
  let nprocs = Cf_machine.Topology.size (Machine.topology machine) in
  let block_pe j =
    let pe = placement j in
    if pe < 0 || pe >= nprocs then
      invalid_arg "Refexec.execute: placement outside the machine";
    pe
  in
  let prog = Compile.make nest in
  let arrays = Compile.arrays prog in
  let stmts = Compile.stmts prog in
  let name block slot =
    if allocate then arrays.(slot) ^ "#" ^ string_of_int block
    else arrays.(slot)
  in
  let blocks =
    Refpartition.blocks
      (Refpartition.make nest (Iter_partition.space partition))
  in
  (* Allocation: every element a block's surviving accesses touch gets a
     copy on the block's processor, one copy per (block, array). *)
  if allocate then begin
    Array.iter
      (fun (b : Refpartition.block) ->
        let pe = block_pe b.Refpartition.id in
        let copies = Array.map (fun _ -> Hashtbl.create 16) arrays in
        List.iter
          (fun iter ->
            Array.iteri
              (fun si (sp : Compile.stmt_sites) ->
                if keep ~stmt_index:si iter then
                  Array.iter
                    (fun (s : Compile.Site.t) ->
                      let el = Compile.Site.eval s iter in
                      Hashtbl.replace copies.(s.Compile.Site.slot)
                        (Array.to_list el) el)
                    (Array.append [| sp.Compile.lhs |] sp.Compile.reads))
              stmts)
          b.Refpartition.iterations;
        Array.iteri
          (fun slot tbl ->
            let els =
              Hashtbl.fold
                (fun _ el acc -> (el, init arrays.(slot) el) :: acc)
                tbl []
            in
            let copy = name b.Refpartition.id slot in
            if els = [] then ()
            else if charge_distribution then
              Machine.host_send machine ~pe copy els
            else
              List.iter
                (fun (el, v) -> Machine.store machine ~pe copy el v)
                els)
          copies)
      blocks;
    Machine.compact machine
  end;
  (* Execution, block by block, recording each element's
     sequentially-latest write. *)
  let last = Hashtbl.create 256 in
  let note a el stamp v =
    match Hashtbl.find_opt last (a, el) with
    | Some (stamp', _) when stamp' > stamp -> ()
    | _ -> Hashtbl.replace last (a, el) (stamp, v)
  in
  let lhs_array si = arrays.(stmts.(si).Compile.lhs.Compile.Site.slot) in
  let on_write =
    if validate then
      Some
        (fun ~stmt_index ~iter ~el v ->
          note (lhs_array stmt_index) (Array.to_list el)
            (Array.to_list iter, stmt_index)
            v)
    else None
  in
  let idx = Nest.indices nest in
  let remote = ref None in
  (try
     Array.iter
       (fun (b : Refpartition.block) ->
         let id = b.Refpartition.id in
         let pe = block_pe id in
         (match backend with
         | `Compiled ->
           let copy_aids =
             Array.init (Array.length arrays) (fun slot ->
                 Some (Machine.array_id machine (name id slot)))
           in
           let target =
             Parexec.machine_target machine ~pe ~copy_aids ~name:(name id)
           in
           List.iter
             (Compile.bind ?keep:keep_opt ?on_write ~scalar ~target prog)
             b.Refpartition.iterations
         | `Interpreted ->
           List.iter
             (fun iter ->
               let index v =
                 let rec find k =
                   if idx.(k) = v then iter.(k) else find (k + 1)
                 in
                 find 0
               in
               let copy r = name id (Compile.slot_of prog r.Aref.array) in
               Array.iteri
                 (fun si (sp : Compile.stmt_sites) ->
                   let s = sp.Compile.stmt in
                   if keep ~stmt_index:si iter then begin
                     let read r =
                       Machine.read machine ~pe (copy r) (Aref.eval index r)
                     in
                     let v = Expr.eval ~read ~scalar ~index s.Stmt.rhs in
                     let el = Aref.eval index s.Stmt.lhs in
                     Machine.write machine ~pe (copy s.Stmt.lhs) el v;
                     if validate then
                       note (lhs_array si) (Array.to_list el)
                         (Array.to_list iter, si)
                         v
                   end)
                 stmts)
             b.Refpartition.iterations);
         Machine.run_iterations machine ~pe
           (List.length b.Refpartition.iterations))
       blocks
   with Machine.Remote_access { pe; array; element } ->
     remote := Some (pe, array, element));
  let mismatches =
    if (not validate) || !remote <> None then []
    else
      let golden =
        match keep_opt with
        | Some keep -> Seqexec.run_filtered ~init ~scalar ~keep nest
        | None -> Seqexec.run ~init ~scalar nest
      in
      List.filter_map
        (fun (a, el, expected) ->
          let got =
            Option.map snd (Hashtbl.find_opt last (a, Array.to_list el))
          in
          if got = Some expected then None
          else Some (a, el, Some expected, got))
        (Seqexec.bindings golden)
  in
  {
    Parexec.machine;
    remote_access = !remote;
    mismatches;
    per_pe_iterations =
      Array.init nprocs (fun pe -> Machine.iterations_of machine ~pe);
    recovery = None;
  }
