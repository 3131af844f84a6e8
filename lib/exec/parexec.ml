open Cf_core
open Cf_loop
open Cf_machine

type placement = int -> int

let cyclic ~nprocs j =
  if nprocs < 1 then invalid_arg "Parexec.cyclic";
  (j - 1) mod nprocs

type recovery = {
  crashed_pes : int list;
  rounds : int;
  replayed_blocks : int;
  redistributed_words : int;
  checkpoints : int;
  checkpoint_words : int;
}

type report = {
  machine : Machine.t;
  remote_access : (int * string * int array) option;
  mismatches : (string * int array * int option * int option) list;
  per_pe_iterations : int array;
  recovery : recovery option;
}

let ok r = r.remote_access = None && r.mismatches = []

(* Accessor target over PE [pe]'s chunks for one copy set: each factory
   resolves the chunk once ({!Machine.reader}, {!Machine.writer},
   {!Machine.flat_view}), so the compiled kernels touch local memory
   with no per-access map lookup.  Slots whose copy array was never
   stored anywhere ([None] aid) fail lazily with the same
   {!Machine.Remote_access} the interpreted body raises. *)
let machine_target machine ~pe ~copy_aids ~name =
  let miss slot el =
    raise
      (Machine.Remote_access { pe; array = name slot; element = Array.copy el })
  in
  {
    Compile.read =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.reader machine ~pe aid
        | None -> miss slot);
    write =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.writer machine ~pe aid
        | None -> fun el _ -> miss slot el);
    flat =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.flat_view machine ~pe aid
        | None -> None);
  }

(* The per-statement list of structurally distinct access sites — what
   allocation must place for one surviving statement instance.  The lhs
   leads; structurally equal references cover the same footprint, so
   each contributes once. *)
let distinct_sites prog =
  Array.map
    (fun sites ->
      Array.of_list
        (Array.fold_left
           (fun acc (s : Compile.Site.t) ->
             if
               List.exists
                 (fun (s' : Compile.Site.t) ->
                   Aref.equal s'.Compile.Site.aref s.Compile.Site.aref)
                 acc
             then acc
             else acc @ [ s ])
           [] sites))
    (Compile.sites prog)

(* The first-touch home rule: walking the iteration space in sequential
   (iteration, statement, write-before-reads) order, an element's home
   is the PE [pe_of iter] of its first access.  Per array slot, packed
   coordinates to home PE. *)
let first_touch_homes ~pe_of prog nest =
  let sites = Compile.sites prog in
  let scratch = Compile.scratch sites in
  let homes =
    Array.map (fun _ -> (Hashtbl.create 64 : (int, int) Hashtbl.t))
      (Compile.arrays prog)
  in
  Compile.iter_space nest (fun iter ->
      let pe = pe_of iter in
      Array.iteri
        (fun si ->
          Array.iteri (fun i (s : Compile.Site.t) ->
              let scr = scratch.(si).(i) in
              Compile.Site.eval_into s iter scr;
              let tbl = homes.(s.Compile.Site.slot) in
              let packed = Machine.pack_coords scr in
              if not (Hashtbl.mem tbl packed) then Hashtbl.add tbl packed pe))
        sites);
  homes

let fallback_homes ~placement partition =
  let nest = Iter_partition.nest partition in
  let prog = Compile.make nest in
  let pe_of iter =
    placement (Iter_partition.block_id_of_iteration partition iter)
  in
  Array.map2
    (fun name tbl -> (name, tbl))
    (Compile.arrays prog)
    (first_touch_homes ~pe_of prog nest)

(* {2 The engine}

   One executor, two copy rules chosen by the entry point:

   - [Block_local] ({!execute}, {!execute_indexed}): every block gets
     private copies ([A#j] for block [j], numbered by
     {!Machine.copy_id}) of everything its surviving accesses touch, and
     blocks run block-major over the {!Coset} index, fanned out over
     OCaml domains, in rounds that recover from PE crashes.  Sound for
     communication-free partitions, where no flow dependence crosses
     blocks.  Validated against the sequentially-last writer of every
     written cell: the allocation walk already visits every kept
     left-hand site, so it records which block holds each cell's
     largest stamp, and that block's copy is read right after the block
     runs (with duplication a co-located replica of another block may
     legally overwrite a shared copy later in wall-clock order, so
     reading memories after the whole run would validate the wrong
     thing).
   - [Homes] ({!execute_fallback}): every element gets one home copy
     under its plain array name on its first-touch PE, and iterations
     run in sequential order on one domain, each on its block's PE.
     Cross-block flow dependences of a fallback plan can point both
     ways, so no block order would reproduce sequential values; this
     order does by construction, and a [`Service] machine charges every
     access crossing a home boundary as one message.  Validated by
     reading every home copy.  Fault plans are refused: replaying only
     the lost blocks is wrong once flow dependences cross blocks.

   Parallel safety of [Block_local] rests on partitioning every piece of
   mutable state by processor: a processor's blocks all run on the one
   domain that owns it ([pe mod domains]), so local memories, compute
   clocks and iteration counters are single-writer; array interning
   happens only in the sequential allocation phase; and each written
   cell is captured by the one block owning it, so captures from
   different domains touch disjoint cells.  Per-PE state is updated in
   ascending block-id order for any domain count, so cost totals are
   bit-identical; and a remote-access abort reports the failure with
   the smallest block id — whether an access faults is independent of
   execution order (execution never adds elements to any memory), so
   that is exactly the fault a one-domain run hits first. *)

type copy_rule = Block_local | Homes

let run ~who ~rule ?(backend = `Compiled) ?(init = Seqexec.default_init)
    ?(scalar = Seqexec.default_scalar) ?exact ?(allocate = true)
    ?(charge_distribution = false) ?(validate = true) ?domains
    ?(checkpoint_every = 0) ?(checkpoint_mode = `Delta) ~machine ~placement
    ~strategy coset =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  let nest = Coset.nest coset in
  let minimal = Strategy.uses_exact_analysis strategy in
  let exact =
    match exact with
    | Some e -> Some e
    | None -> if minimal then Some (Cf_dep.Exact.analyze nest) else None
  in
  let keep_opt =
    match exact with
    | Some e when minimal ->
      Some
        (fun ~stmt_index iter ->
          not (Cf_dep.Exact.is_redundant e ~stmt_index iter))
    | _ -> None
  in
  let keep ~stmt_index iter =
    match keep_opt with Some f -> f ~stmt_index iter | None -> true
  in
  let nprocs = Topology.size (Machine.topology machine) in
  let plan = Machine.faults machine in
  (* One coherent timeline per run: the engine emits its spans into the
     machine's own trace, interleaved with the machine's send/resend/
     crash events.  All timestamps are simulated seconds. *)
  let obs = Machine.obs machine in
  let obs_on = Cf_obs.Trace.enabled obs in
  let backend_arg = Cf_obs.Trace.Str (Compile.backend_name backend) in
  (match (plan, rule) with
  | Some _, Homes -> fail "fault plans are unsupported"
  (* Recovery replays lost data from block-local copies; without
     [allocate] the caller owns distribution and copies may be shared,
     so a crash could not be repaired locally. *)
  | Some _, Block_local when not allocate ->
    fail "fault injection requires allocate"
  | _ -> ());
  if checkpoint_every < 0 then fail "checkpoint_every must be >= 0";
  let dcount =
    match domains with
    | Some d when d < 1 -> fail "domains must be >= 1"
    | Some d -> max 1 (min d nprocs)
    | None -> max 1 (min (Domain.recommended_domain_count ()) nprocs)
  in
  let block_pe j =
    let pe = placement j in
    if pe < 0 || pe >= nprocs then fail "placement outside the machine";
    pe
  in
  let q = Coset.block_count coset in
  let owner = Array.init q (fun i -> block_pe (i + 1)) in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) (Nest.indices nest);
  (* Every access site pre-resolved once — array slots, subscript
     matrices — shared by allocation, the interpreted body and the
     compiled kernels. *)
  let prog = Compile.make nest in
  let arr_names = Compile.arrays prog in
  let nslots = Array.length arr_names in
  let stmts = Compile.stmts prog in
  let lslots =
    Array.map
      (fun (sp : Compile.stmt_sites) -> sp.Compile.lhs.Compile.Site.slot)
      stmts
  in
  let base_aids = Array.map (fun a -> Machine.array_id machine a) arr_names in
  let block_local = allocate && rule = Block_local in
  (* Names only for a remote-access report: a block's copy is [A#id],
     and without block-local copies every block shares the plain name. *)
  let copy_name id slot =
    Machine.array_name machine
      (if block_local then Machine.copy_id machine base_aids.(slot) id
       else base_aids.(slot))
  in
  (* Each block's copy ids, recorded when its copies are placed (a slot
     the block never touches stays [None] and faults lazily under its
     copy name).  Plain names are shared by every block. *)
  let plain_aids = Array.map Option.some base_aids in
  let block_aids = Array.make q plain_aids in
  (* The initial values live once, in host arrays; copies are gathered
     out of them and the golden run starts from them. *)
  let host = lazy (Host.make ~init prog nest) in
  (* Liveness under the fault plan.  A dead PE's pending blocks move to
     the survivors by the same cyclic rule the original placement used,
     so recovery is itself a communication-free assignment. *)
  let alive = Array.make nprocs true in
  let dist_crashed = ref [] in
  let reassign id =
    match List.filter (fun pe -> alive.(pe)) (List.init nprocs Fun.id) with
    | [] -> fail "every processor crashed"
    | survivors ->
      let s = Array.of_list survivors in
      s.((id - 1) mod Array.length s)
  in
  (* Block-local runs validate against each written cell's
     sequentially-last writer; home copies are validated in place. *)
  let track = validate && rule = Block_local in
  (* A stamp is one int: the iteration's mixed-radix rank over the
     nest's bounding box (which orders iterations lexicographically)
     times the statement count, plus the statement index.  Along a coset
     run it advances by [step · radix.(q)]. *)
  let box_lo, radix =
    if not track then ([||], [||])
    else
      match Nest.bounding_box nest with
      | None -> ([||], [||])
      | Some (lo, hi) ->
        let n = Array.length lo in
        let radix = Array.make n (Array.length stmts) in
        for k = n - 2 downto 0 do
          let ext = hi.(k + 1) - lo.(k + 1) + 1 in
          if radix.(k + 1) > max_int / ext then
            fail "iteration space too large to validate";
          radix.(k) <- radix.(k + 1) * ext
        done;
        if radix.(0) > max_int / (hi.(0) - lo.(0) + 1) then
          fail "iteration space too large to validate";
        (lo, radix)
  in
  let stamp iter si =
    let r = ref si in
    for k = 0 to Array.length radix - 1 do
      r := !r + ((iter.(k) - box_lo.(k)) * radix.(k))
    done;
    !r
  in
  let writers = if track then Some (Host.writers (Lazy.force host)) else None in
  (* The allocation walk: a block's kept statement instances, one coset
     run at a time (one iteration where the walk cannot batch or [keep]
     filters instances).  With block-local copies every distinct access
     site adds one strided segment to the block's footprint; under
     validation the left-hand site (each statement's first) also records
     its stamps.  This phase is sequential, so scratch is shared. *)
  let sites = distinct_sites prog in
  let scratch = Compile.scratch sites in
  let deltas = Compile.scratch sites in
  let fps = Array.init nslots (fun _ -> Host.footprint ()) in
  let walking = ref 0 in
  let record si x ~q ~step ~count =
    let ss = sites.(si) in
    let last = if block_local then Array.length ss - 1 else 0 in
    for i = 0 to last do
      let s = ss.(i) in
      let e = scratch.(si).(i) and d = deltas.(si).(i) in
      Compile.Site.eval_into s x e;
      for p = 0 to Array.length d - 1 do
        d.(p) <- step * s.Compile.Site.h.(p).(q)
      done;
      let slot = s.Compile.Site.slot in
      if block_local then Host.add fps.(slot) e d ~count;
      match writers with
      | Some w when i = 0 ->
        Host.add_writes w slot e d ~count ~stamp:(stamp x si)
          ~dstamp:(step * radix.(q)) ~block:!walking
      | _ -> ()
    done
  in
  let one x =
    for si = 0 to Array.length sites - 1 do
      if keep ~stmt_index:si x then record si x ~q:0 ~step:0 ~count:1
    done
  in
  let run x ~q ~step ~count =
    match keep_opt with
    | None ->
      for si = 0 to Array.length sites - 1 do
        record si x ~q ~step ~count
      done
    | Some _ ->
      let x0 = x.(q) in
      for t = 0 to count - 1 do
        x.(q) <- x0 + (t * step);
        one x
      done;
      x.(q) <- x0
  in
  let walk id =
    walking := id;
    Coset.iter_block_runs coset ~id ~run one
  in
  (* Allocation: build each copy as the chunk it will live in, then
     place it — as one pipelined host message per copy when distribution
     is charged, wholesale otherwise.  Block-local copies go block by
     block, slot by slot; home copies array by array, PE by PE. *)
  let dist_t0 = Machine.host_now machine in
  let place ~pe aid chunk =
    if charge_distribution then Machine.host_send_chunk machine ~pe aid chunk
    else Machine.install_chunk machine ~pe aid chunk
  in
  let homes =
    match rule with
    | Block_local -> [||]
    | Homes ->
      first_touch_homes prog nest ~pe_of:(fun iter ->
          owner.(Coset.block_id_of_iteration coset iter - 1))
  in
  (match rule with
  | Homes ->
    let host = Lazy.force host in
    Array.iteri
      (fun slot tbl ->
        let per_pe = Array.init nprocs (fun _ -> Hashtbl.create 16) in
        Hashtbl.iter
          (fun packed pe ->
            Hashtbl.add per_pe.(pe) packed
              (Host.value host slot (Machine.unpack_coords packed)))
          tbl;
        Array.iteri
          (fun pe copy ->
            if Hashtbl.length copy > 0 then
              place ~pe base_aids.(slot) (Machine.sparse_chunk copy))
          per_pe)
      homes
  | Block_local when allocate ->
    (* A block's copy set, one footprint per array, gathered out of the
       host arrays. *)
    let host = Lazy.force host in
    let copies id =
      Array.iter Host.reset fps;
      walk id;
      Array.mapi
        (fun slot fp ->
          Option.map
            (fun chunk -> (Machine.copy_id machine base_aids.(slot) id, chunk))
            (Host.gather host slot fp))
        fps
    in
    (* A node dead on arrival is unmasked by the first send to it (which
       stores nothing); the host then reassigns every pending block of
       the dead PE over the survivors and resends the chunks it already
       built.  Each pass either drains the pending list or unmasks at
       least one more dead PE, so this terminates. *)
    let pending = ref (List.init q (fun i -> (i + 1, None))) in
    while !pending <> [] do
      let deferred = ref [] in
      List.iter
        (fun (id, built) ->
          let pe = owner.(id - 1) in
          if not alive.(pe) then deferred := (id, built) :: !deferred
          else begin
            let built = match built with Some b -> b | None -> copies id in
            try
              Array.iter
                (Option.iter (fun (aid, chunk) -> place ~pe aid chunk))
                built;
              block_aids.(id - 1) <- Array.map (Option.map fst) built
            with Machine.Pe_crashed { pe } ->
              alive.(pe) <- false;
              dist_crashed := pe :: !dist_crashed;
              deferred := (id, Some built) :: !deferred
          end)
        !pending;
      List.iter (fun (id, _) -> owner.(id - 1) <- reassign id) !deferred;
      pending := List.rev !deferred
    done
  | Block_local ->
    (* Caller-placed data: the walk only records left-hand stamps. *)
    if track then
      for id = 1 to q do
        walk id
      done);
  Option.iter (fun w -> Host.settle w ~blocks:q) writers;
  if allocate then Machine.compact machine;
  if obs_on then
    Cf_obs.Trace.complete obs ~lane:Cf_obs.Trace.host_lane ~cat:"dist"
      ~ts:dist_t0
      ~dur:(Machine.host_now machine -. dist_t0)
      "distribute"
      ~args:
        [
          ("blocks", Cf_obs.Trace.Int q);
          ("charged", Cf_obs.Trace.Bool charge_distribution);
        ];
  (* One execution context per domain: subscript scratch — elements
     live only for one access (the machine never retains them, and the
     fault path copies) — and its bound kernels. *)
  let worker () =
    let scratch = Compile.scratch (Compile.sites prog) in
    (* Interpreted body: one iteration's AST walk over the interned
       machine accessors — the differential oracle for the compiled
       kernels. *)
    let interp ~pe ~name copy_aids =
      let aid_of slot el =
        match copy_aids.(slot) with
        | Some aid -> aid
        | None ->
          (* Never stored anywhere, so not local either. *)
          raise
            (Machine.Remote_access
               { pe; array = name slot; element = Array.copy el })
      in
      fun iter ->
        let index v = iter.(Hashtbl.find pos v) in
        Array.iteri
          (fun si (sp : Compile.stmt_sites) ->
            if keep ~stmt_index:si iter then begin
              let scrs = scratch.(si) in
              let rsites = sp.Compile.reads in
              let read (r : Aref.t) =
                (* Expr nodes are physically the compiled sites' arefs, so
                   a pointer scan resolves the site without hashing. *)
                let rec find i =
                  if i >= Array.length rsites then
                    invalid_arg "Parexec: read site not compiled"
                  else if rsites.(i).Compile.Site.aref == r then i
                  else find (i + 1)
                in
                let i = find 0 in
                let el = scrs.(i + 1) in
                Compile.Site.eval_into rsites.(i) iter el;
                Machine.read_id machine ~pe
                  (aid_of rsites.(i).Compile.Site.slot el)
                  el
              in
              let v = Expr.eval ~read ~scalar ~index sp.Compile.stmt.Stmt.rhs in
              let el = scrs.(0) in
              Compile.Site.eval_into sp.Compile.lhs iter el;
              Machine.write_id machine ~pe (aid_of lslots.(si) el) el v
            end)
          stmts
    in
    (* Compiled body, bound per PE and reused while the PE's resolved
       copy ids stay the same: with plain names ([allocate = false], or
       home copies) every block on a PE binds the same chunks, while
       block-local copies differ block to block and rebind.  Chunk
       bindings only change between rounds (recovery replay), and each
       round builds fresh workers, so a cached kernel never outlives its
       chunks. *)
    let kcache = Array.make nprocs None in
    let kernel ~pe ~name copy_aids =
      match kcache.(pe) with
      | Some (aids, k) when aids = copy_aids -> k
      | _ ->
        let target = machine_target machine ~pe ~copy_aids ~name in
        let k = Compile.bind_run ?keep:keep_opt ~scalar ~target prog in
        kcache.(pe) <- Some (copy_aids, k);
        k
    in
    (interp, kernel)
  in
  (* Right after a block runs — before another block on its processor
     can touch a shared plain-named copy, and before a later crash can
     clear it — the cells it writes last are read out of its own copy.
     A crashed block captures nothing; its replay captures on the
     survivor. *)
  let capture id ~pe copy_aids =
    match writers with
    | None -> ()
    | Some w ->
      Host.capture w ~block:id (fun slot el ->
          match copy_aids.(slot) with
          | Some aid when Machine.holds_id machine ~pe aid el ->
            Some (Machine.read_id machine ~pe aid el)
          | _ -> None)
  in
  (* Snapshot the distributed state: when a PE crashes mid-run, its
     block-local chunks are replayed from this checkpoint onto the
     survivors.  [ckpt_owner] pins where each block's chunks live in the
     snapshot, immune to later reassignment.  With [checkpoint_every]
     > 0 the snapshot is refreshed every so many rounds (at round
     start, after the previous round's recovery settles), so recovery
     replays from the last completed round instead of from
     post-distribution. *)
  let n_ckpts = ref 0 in
  let ckpt_words_total = ref 0 in
  let take_checkpoint () =
    let c = Machine.checkpoint ~mode:checkpoint_mode machine in
    incr n_ckpts;
    ckpt_words_total := !ckpt_words_total + Machine.checkpoint_words c;
    c
  in
  let ckpt =
    ref (match plan with Some _ -> Some (take_checkpoint ()) | None -> None)
  in
  let ckpt_owner = ref (Array.copy owner) in
  let done_blocks = Array.make q false in
  (* One round on domain [d]: the pending blocks of the processors with
     [pe mod dcount = d], in ascending id order. *)
  let run_domain d =
    let interp, kernel = worker () in
    let remote = ref None in
    let dead_here = ref [] in
    let cur_block = ref 0 in
    (try
       for id = 1 to q do
         let pe = owner.(id - 1) in
         if
           pe mod dcount = d && alive.(pe)
           && (not done_blocks.(id - 1))
           && not (List.mem pe !dead_here)
         then begin
           cur_block := id;
           try
             let block_t0 = if obs_on then Machine.pe_now machine pe else 0. in
             let copy_aids = block_aids.(id - 1) in
             let name = copy_name id in
             (match backend with
             | `Compiled ->
               if obs_on then
                 Cf_obs.Trace.mark obs ~lane:pe ~cat:"compile" ~ts:block_t0
                   "compile"
                   ~args:[ ("block", Cf_obs.Trace.Int id) ];
               let k, run = kernel ~pe ~name copy_aids in
               Coset.iter_block_runs coset ~id ~run k
             | `Interpreted ->
               Coset.iter_block ~reuse:true coset ~id
                 (interp ~pe ~name copy_aids));
             let bsize = (Coset.block coset ~id).Coset.size in
             Machine.run_iterations machine ~pe bsize;
             capture id ~pe copy_aids;
             if obs_on then
               Cf_obs.Trace.complete obs ~lane:pe ~cat:"compute" ~ts:block_t0
                 ~dur:(Machine.pe_now machine pe -. block_t0)
                 "block"
                 ~args:
                   [
                     ("block", Cf_obs.Trace.Int id);
                     ("iterations", Cf_obs.Trace.Int bsize);
                     ("backend", backend_arg);
                   ];
             done_blocks.(id - 1) <- true
           with Machine.Pe_crashed { pe } -> dead_here := pe :: !dead_here
         end
       done
     with Machine.Remote_access { pe; array; element } ->
       remote := Some (!cur_block, (pe, array, element)));
    (!remote, !dead_here)
  in
  (* Home copies: the whole space in sequential order on this domain,
     each iteration on its block's PE, one iteration charged at a
     time. *)
  let run_sequential () =
    let interp, kernel = worker () in
    let aids = plain_aids in
    let name = copy_name 0 in
    let body =
      Array.init nprocs (fun pe ->
          lazy
            (match backend with
            | `Compiled -> fst (kernel ~pe ~name aids)
            | `Interpreted -> interp ~pe ~name aids))
    in
    try
      Compile.iter_space nest (fun iter ->
          let pe = owner.(Coset.block_id_of_iteration coset iter - 1) in
          Lazy.force body.(pe) iter;
          Machine.run_iterations machine ~pe 1);
      None
    with Machine.Remote_access { pe; array; element } ->
      Some (pe, array, element)
  in
  (* Round loop.  Each round fans the pending blocks out over the
     domains; a crash surfaces as Pe_crashed caught at block granularity
     (the dying block does not count as done).  After the join, dead
     PEs are cleared, their pending blocks replayed from the checkpoint
     onto survivors, and the next round re-executes exactly those
     blocks.  Each PE crashes at most once, so the loop ends within
     nprocs + 1 rounds. *)
  let remote = ref None in
  let run_crashed = ref [] in
  let rounds = ref 0 in
  let replayed = ref 0 in
  let rewords = ref 0 in
  (* Home copies run once, in sequential order; block-local copies run
     in rounds. *)
  let running = ref (rule = Block_local) in
  if rule = Homes then remote := run_sequential ();
  (* Rounds completed since the live checkpoint was taken; the refresh
     happens at round start so a crashed block's partial writes are
     never captured. *)
  let since = ref 0 in
  while !running do
    if plan <> None && checkpoint_every > 0 && !since >= checkpoint_every
    then begin
      ckpt := Some (take_checkpoint ());
      ckpt_owner := Array.copy owner;
      since := 0
    end;
    incr since;
    incr rounds;
    if obs_on then
      Cf_obs.Trace.mark obs ~lane:Cf_obs.Trace.host_lane ~cat:"exec"
        ~ts:(Machine.host_now machine) "round"
        ~args:[ ("round", Cf_obs.Trace.Int !rounds) ];
    let results = Array.make dcount (None, []) in
    let spawned =
      Array.init (dcount - 1) (fun i ->
          Domain.spawn (fun () -> run_domain (i + 1)))
    in
    results.(0) <- run_domain 0;
    Array.iteri (fun i dom -> results.(i + 1) <- Domain.join dom) spawned;
    (* Each domain reports the first fault among its own blocks; the one
       with the globally smallest block id is the sequential engine's. *)
    let round_remote =
      Array.fold_left
        (fun acc (r, _) ->
          match (acc, r) with
          | None, r -> r
          | acc, None -> acc
          | Some (id, _), Some (id', _) when id' < id -> r
          | acc, Some _ -> acc)
        None results
    in
    let new_dead =
      List.sort_uniq compare
        (Array.fold_left (fun acc (_, dead) -> dead @ acc) [] results)
    in
    match round_remote with
    | Some (_, fault) ->
      remote := Some fault;
      running := false
    | None ->
      if new_dead = [] then running := false
      else begin
        let ckpt = Option.get !ckpt in
        run_crashed := !run_crashed @ new_dead;
        List.iter
          (fun pe ->
            alive.(pe) <- false;
            Machine.clear_pe machine ~pe)
          new_dead;
        for id = 1 to q do
          if (not done_blocks.(id - 1)) && not alive.(owner.(id - 1)) then begin
            let to_pe = reassign id in
            Array.iter
              (Option.iter (fun aid ->
                   rewords :=
                     !rewords
                     + Machine.recover_chunk machine ckpt
                         ~from_pe:(!ckpt_owner).(id - 1) ~to_pe ~aid))
              block_aids.(id - 1);
            owner.(id - 1) <- to_pe;
            incr replayed
          end
        done;
        if obs_on then
          Cf_obs.Trace.mark obs ~lane:Cf_obs.Trace.host_lane ~cat:"fault"
            ~ts:(Machine.host_now machine) "recovery"
            ~args:
              [
                ("round", Cf_obs.Trace.Int !rounds);
                ("crashed", Cf_obs.Trace.Int (List.length new_dead));
                ("replayed_blocks", Cf_obs.Trace.Int !replayed);
                ("words", Cf_obs.Trace.Int !rewords);
              ]
      end
  done;
  (* Validation walks the cells the golden run wrote, each looked up by
     packed key in the captured last writers (or the home copies); only
     the mismatches are sorted, into the order of the sorted golden
     bindings. *)
  let mismatches =
    match !remote with
    | _ when not validate -> []
    | Some _ -> []
    | None ->
      let golden =
        Seqexec.golden ~keep:keep_opt ~scalar prog nest (Lazy.force host)
      in
      let got =
        match rule with
        | Homes ->
          fun slot packed ->
            (match Hashtbl.find_opt homes.(slot) packed with
            | Some pe ->
              let el = Machine.unpack_coords packed in
              if Machine.holds_id machine ~pe base_aids.(slot) el then
                Some (Machine.read_id machine ~pe base_aids.(slot) el)
              else None
            | None -> None)
        | Block_local -> Host.captured (Option.get writers)
      in
      let bad = ref [] in
      Host.iter_written golden (fun slot packed expected ->
          let got = got slot packed in
          if got <> Some expected then
            bad :=
              ( arr_names.(slot),
                Machine.unpack_coords packed,
                Some expected,
                got )
              :: !bad);
      List.sort compare !bad
  in
  let per_pe_iterations =
    Array.init nprocs (fun pe -> Machine.iterations_of machine ~pe)
  in
  let recovery =
    match plan with
    | None -> None
    | Some _ ->
      Some
        {
          crashed_pes = List.sort_uniq compare (!dist_crashed @ !run_crashed);
          rounds = !rounds;
          replayed_blocks = !replayed;
          redistributed_words = !rewords;
          checkpoints = !n_ckpts;
          checkpoint_words = !ckpt_words_total;
        }
  in
  { machine; remote_access = !remote; mismatches; per_pe_iterations; recovery }

let execute ?backend ?init ?scalar ?exact ?allocate ?charge_distribution
    ?validate ~machine ~placement ~strategy partition =
  run ~who:"Parexec.execute" ~rule:Block_local ?backend ?init ?scalar ?exact
    ?allocate ?charge_distribution ?validate ~machine ~placement ~strategy
    (Iter_partition.coset partition)

let execute_indexed = run ~who:"Parexec.execute_indexed" ~rule:Block_local

let execute_fallback ?backend ?init ?scalar ?charge_distribution ?validate
    ~machine ~placement partition =
  run ~who:"Parexec.execute_fallback" ~rule:Homes ?backend ?init ?scalar
    ?charge_distribution ?validate ~machine ~placement
    ~strategy:Strategy.Nonduplicate (Iter_partition.coset partition)

let pp_report ppf r =
  (match r.remote_access with
   | Some (pe, a, el) ->
     Format.fprintf ppf "REMOTE ACCESS: PE%d touched %s%a@," pe a
       Cf_linalg.Vec.pp_int el
   | None ->
     let serviced = Machine.serviced_messages r.machine in
     if serviced = 0 then Format.fprintf ppf "communication-free: yes@,"
     else
       Format.fprintf ppf
         "communication: %d serviced message(s) (%d read, %d write)@,"
         serviced
         (Machine.serviced_reads r.machine)
         (Machine.serviced_writes r.machine));
  if r.mismatches = [] then Format.fprintf ppf "results: match sequential@,"
  else
    List.iter
      (fun (a, el, want, got) ->
        let pp_opt ppf = function
          | Some v -> Format.fprintf ppf "%d" v
          | None -> Format.fprintf ppf "-"
        in
        Format.fprintf ppf "MISMATCH %s%a: expected %a, got %a@," a
          Cf_linalg.Vec.pp_int el pp_opt want pp_opt got)
      r.mismatches;
  (match r.recovery with
  | Some { crashed_pes = []; _ } ->
    Format.fprintf ppf "faults: none fired@,"
  | Some rc ->
    Format.fprintf ppf
      "recovered: PE {%s} crashed; %d block(s) replayed over %d round(s), %d word(s) redistributed@,"
      (String.concat "," (List.map string_of_int rc.crashed_pes))
      rc.replayed_blocks rc.rounds rc.redistributed_words;
    Format.fprintf ppf "checkpoints: %d taken, %d word(s) captured@,"
      rc.checkpoints rc.checkpoint_words
  | None -> ());
  Format.fprintf ppf "iterations per PE: %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Format.pp_print_int)
    (Array.to_list r.per_pe_iterations)
