open Cf_loop

type computation = { stmt_index : int; iter : int array }

type event = {
  comp : int;  (** computation id *)
  site : Nest.ref_site;
  iter : int array;
}

type result = {
  nest : Nest.t;
  comp_stmt : int array;  (** computation id -> statement index *)
  comp_iter : int array array;  (** computation id -> iteration *)
  redundant : bool array;  (** computation id -> redundant? *)
  elements : (string * int list, event array) Hashtbl.t;
}

let nest r = r.nest

let analysis_limit = 100_000

(* Per-statement reference sites, with reads first (they execute before
   the write of the same statement). *)
let stmt_sites (t : Nest.t) =
  Array.of_list
    (List.mapi
       (fun si (s : Stmt.t) ->
         let reads =
           List.mapi
             (fun k r ->
               {
                 Nest.access = Nest.Read;
                 stmt_index = si;
                 site_index = k + 1;
                 aref = r;
               })
             (Stmt.reads s)
         in
         let write =
           {
             Nest.access = Nest.Write;
             stmt_index = si;
             site_index = 0;
             aref = s.lhs;
           }
         in
         (reads, write))
       t.body)

let analyze ?(max_events = 2_000_000) (t : Nest.t) =
  let idx = Nest.indices t in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) idx;
  let sites = stmt_sites t in
  let nstmts = Array.length sites in
  let raw : (string * int list, event list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let comp_stmt = ref [] and comp_iter = ref [] in
  let comp_count = ref 0 in
  let event_count = ref 0 in
  let record el ev =
    incr event_count;
    if !event_count > max_events then
      invalid_arg "Exact.analyze: iteration space too large";
    match Hashtbl.find_opt raw el with
    | Some l -> l := ev :: !l
    | None -> Hashtbl.replace raw el (ref [ ev ])
  in
  Nest.iter_space t (fun iter ->
      let env v =
        match Hashtbl.find_opt pos v with
        | Some k -> iter.(k)
        | None -> invalid_arg ("Exact.analyze: unbound index " ^ v)
      in
      for si = 0 to nstmts - 1 do
        let comp = !comp_count in
        incr comp_count;
        comp_stmt := si :: !comp_stmt;
        comp_iter := iter :: !comp_iter;
        let reads, write = sites.(si) in
        List.iter
          (fun (site : Nest.ref_site) ->
            let el =
              (site.aref.Aref.array, Array.to_list (Aref.eval env site.aref))
            in
            record el { comp; site; iter })
          reads;
        let el =
          (write.aref.Aref.array, Array.to_list (Aref.eval env write.aref))
        in
        record el { comp; site = write; iter }
      done);
  let comp_stmt = Array.of_list (List.rev !comp_stmt) in
  let comp_iter = Array.of_list (List.rev !comp_iter) in
  let elements = Hashtbl.create (Hashtbl.length raw) in
  Hashtbl.iter
    (fun el evs -> Hashtbl.replace elements el (Array.of_list (List.rev !evs)))
    raw;
  let redundant = Array.make (Array.length comp_stmt) false in
  (* Fixpoint: mark a write redundant when a later write to the same
     element exists and every read in between is by a redundant
     computation. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ evs ->
        let m = Array.length evs in
        for p = 0 to m - 1 do
          let e = evs.(p) in
          if e.site.Nest.access = Nest.Write && not redundant.(e.comp) then begin
            (* Find the next write; check reads in between. *)
            let rec scan q live_read =
              if q >= m then None
              else
                match evs.(q).site.Nest.access with
                | Nest.Write -> Some live_read
                | Nest.Read ->
                  scan (q + 1) (live_read || not redundant.(evs.(q).comp))
            in
            match scan (p + 1) false with
            | Some false ->
              redundant.(e.comp) <- true;
              changed := true
            | Some true | None -> ()
          end
        done)
      elements
  done;
  { nest = t; comp_stmt; comp_iter; redundant; elements }

let redundant_computations r =
  let acc = ref [] in
  for c = Array.length r.redundant - 1 downto 0 do
    if r.redundant.(c) then
      acc := { stmt_index = r.comp_stmt.(c); iter = r.comp_iter.(c) } :: !acc
  done;
  !acc

let relabel (r : result) (nest : Nest.t) =
  let new_sites = stmt_sites nest in
  let old_sites = stmt_sites r.nest in
  if Array.length new_sites <> Array.length old_sites then
    invalid_arg "Exact.relabel: statement count mismatch";
  Array.iteri
    (fun si (reads, _) ->
      let reads', _ = new_sites.(si) in
      if List.length reads <> List.length reads' then
        invalid_arg "Exact.relabel: read-site count mismatch")
    old_sites;
  (* Sites are identified positionally: site_index 0 is the write, k >= 1
     the k-th read.  Element keys are re-derived from the renamed sites
     (every event of an element references the element's array). *)
  let site_of (s : Nest.ref_site) =
    let reads, write = new_sites.(s.Nest.stmt_index) in
    if s.Nest.site_index = 0 then write
    else List.nth reads (s.Nest.site_index - 1)
  in
  let elements = Hashtbl.create (Hashtbl.length r.elements) in
  Hashtbl.iter
    (fun (_, coords) evs ->
      let evs = Array.map (fun e -> { e with site = site_of e.site }) evs in
      if Array.length evs > 0 then
        Hashtbl.replace elements
          (evs.(0).site.Nest.aref.Aref.array, coords)
          evs)
    r.elements;
  { r with nest; elements }

let is_redundant r ~stmt_index iter =
  let found = ref false in
  Array.iteri
    (fun c si ->
      if
        si = stmt_index && r.comp_iter.(c) = iter && r.redundant.(c)
      then found := true)
    r.comp_stmt;
  !found

let n_set r k =
  let acc = ref [] in
  for c = Array.length r.comp_stmt - 1 downto 0 do
    if r.comp_stmt.(c) = k && not r.redundant.(c) then
      acc := r.comp_iter.(c) :: !acc
  done;
  !acc

let vec_sub a b = Array.map2 ( - ) a b

let dep_key (d : Analysis.dep) =
  ( d.array,
    (d.src.Nest.stmt_index, d.src.site_index),
    (d.dst.Nest.stmt_index, d.dst.site_index),
    d.kind,
    Array.to_list d.witness )

(* Generate consecutive-event dependences from one element timeline:
   write -> following reads up to and incl. the next write (flow/output),
   read -> next write (anti), consecutive read pairs (input). *)
let deps_of_timeline array evs emit =
  let m = Array.length evs in
  for p = 0 to m - 1 do
    let a = evs.(p) in
    match a.site.Nest.access with
    | Nest.Write ->
      let rec follow q =
        if q < m then begin
          let b = evs.(q) in
          match b.site.Nest.access with
          | Nest.Read ->
            emit
              {
                Analysis.array;
                src = a.site;
                dst = b.site;
                kind = Kind.Flow;
                witness = vec_sub b.iter a.iter;
              };
            follow (q + 1)
          | Nest.Write ->
            emit
              {
                Analysis.array;
                src = a.site;
                dst = b.site;
                kind = Kind.Output;
                witness = vec_sub b.iter a.iter;
              }
        end
      in
      follow (p + 1)
    | Nest.Read ->
      (* Next event: read -> input to the immediately next read;
         read -> anti to the next write. *)
      let find_next q =
        if q < m then begin
          let b = evs.(q) in
          match b.site.Nest.access with
          | Nest.Read ->
            emit
              {
                Analysis.array;
                src = a.site;
                dst = b.site;
                kind = Kind.Input;
                witness = vec_sub b.iter a.iter;
              }
          | Nest.Write ->
            emit
              {
                Analysis.array;
                src = a.site;
                dst = b.site;
                kind = Kind.Anti;
                witness = vec_sub b.iter a.iter;
              }
        end
      in
      find_next (p + 1);
      (* Also the anti dependence when reads separate this read from the
         next write. *)
      let rec find_write q =
        if q < m then
          match evs.(q).site.Nest.access with
          | Nest.Read -> find_write (q + 1)
          | Nest.Write ->
            let b = evs.(q) in
            emit
              {
                Analysis.array;
                src = a.site;
                dst = b.site;
                kind = Kind.Anti;
                witness = vec_sub b.iter a.iter;
              }
      in
      find_write (p + 1)
  done

let collect_deps r ~filter_redundant =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let emit d =
    let k = dep_key d in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      acc := d :: !acc
    end
  in
  Hashtbl.iter
    (fun (array, _) evs ->
      let evs =
        if filter_redundant then
          Array.of_list
            (List.filter
               (fun e -> not r.redundant.(e.comp))
               (Array.to_list evs))
        else evs
      in
      deps_of_timeline array evs emit)
    r.elements;
  List.rev !acc

let useful_deps r = collect_deps r ~filter_redundant:true
let all_deps r = collect_deps r ~filter_redundant:false

let dep_vectors ?(kinds = [ Kind.Flow; Kind.Anti; Kind.Output; Kind.Input ])
    deps array =
  List.filter_map
    (fun (d : Analysis.dep) ->
      if String.equal d.array array && List.mem d.kind kinds then
        Some d.witness
      else None)
    deps
  |> List.fold_left
       (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
       []

type access_event = {
  stmt_index : int;
  iter : int array;
  access : Nest.access;
  redundant : bool;
}

let timelines (r : result) =
  Hashtbl.fold
    (fun (array, el) evs acc ->
      let events =
        Array.to_list evs
        |> List.map (fun e ->
               {
                 stmt_index = e.site.Nest.stmt_index;
                 iter = e.iter;
                 access = e.site.Nest.access;
                 redundant = r.redundant.(e.comp);
               })
      in
      ((array, Array.of_list el), events) :: acc)
    r.elements []
  |> List.sort compare

let pp_summary ppf r =
  let total = Array.length r.comp_stmt in
  let red = Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.redundant in
  Format.fprintf ppf
    "@[<v>exact analysis: %d computations, %d redundant, %d elements touched@]"
    total red (Hashtbl.length r.elements)
