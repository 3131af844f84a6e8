exception Remote_access of { pe : int; array : string; element : int array }
exception Pe_crashed of { pe : int }

type comm_mode = [ `Strict | `Service ]

let comm_mode_name = function `Strict -> "strict" | `Service -> "service"
let comm_mode_names = [ "strict"; "service" ]

let comm_mode_of_string = function
  | "strict" -> Some `Strict
  | "service" -> Some `Service
  | _ -> None

type event =
  | Send of { pe : int; array : string; size : int }
  | Broadcast of { array : string; size : int }
  | Multicast of { pes : int list; array : string; size : int }
  | Resend of { pe : int; array : string; size : int }

(* The trace as recorded: array ids, named only when {!trace} is read,
   so a distribution of many block copies builds no names. *)
type sent =
  | Sent of { pe : int; aid : int; size : int }
  | Broadcast_sent of { aid : int; size : int }
  | Multicast_sent of { pes : int list; aid : int; size : int }
  | Resent of { pe : int; aid : int; size : int }

(* Local memories avoid the polymorphic hash entirely: array names are
   interned to dense ints once, element coordinates are packed into a
   single tagged int, and every Hashtbl in the hot path is keyed by
   ints.  A chunk holds one array's elements on one processor; chunks
   start sparse and {!compact} promotes dense ones to a flat buffer
   addressed by affine linearization of the bounding box, with a
   presence bitmap preserving exact holds/Remote_access semantics. *)

type flat = {
  lo : int array;
  extents : int array;
  data : int array;
  present : Bytes.t;
  dirty : Bytes.t;
}

type chunk =
  | Sparse of (int, int) Hashtbl.t
  | Flat of {
      lo : int array;
      extents : int array;
      data : int array;
      present : Bytes.t;
      dirty : Bytes.t;  (* parallel to [data]: written since last capture *)
      mutable count : int;
    }

(* Write journal: each PE tracks, since the last delta capture (or
   journal restart), which sparse cells were written (packed keys, per
   array id), which chunks were replaced wholesale, and whether the
   whole memory was cleared.  Flat chunks record writes in their
   [dirty] bitmap instead — one unconditional byte store per write
   keeps the compiled kernels branch-free.  Captures read the current
   value of every dirty cell (latest-wins) and reset the journal in
   place, preserving the physical identity of the tables and bitmaps
   that bound closures and compiled kernels hold. *)
type jentry = {
  mutable j_cleared : bool;
  j_whole : (int, unit) Hashtbl.t;  (* aid: chunk replaced wholesale *)
  j_cells : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* aid -> packed keys *)
}

(* One delta checkpoint window: everything written between two captures,
   with values as of the later capture. *)
type delta = {
  d_cleared : bool array;  (* per PE: memory was cleared in this window *)
  d_whole : (int * int, chunk) Hashtbl.t;  (* (pe, aid) -> chunk copy *)
  d_cells : (int * int, (int, int) Hashtbl.t) Hashtbl.t;
      (* (pe, aid) -> packed key -> value *)
  d_words : int;
}

(* A chain is one full-snapshot base plus the deltas captured since.
   Checkpoints reference a chain and a prefix length; the chain is
   append-only, so outstanding checkpoint values stay valid when the
   machine moves on (or starts a fresh chain). *)
type chain = {
  c_base : (int, chunk) Hashtbl.t array;
  mutable c_deltas : delta list;  (* oldest first *)
  mutable c_len : int;
}

(* Array names hash and compare as strings, not polymorphically. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  topology : Topology.t;
  cost : Cost.t;
  faults : Cf_fault.Fault.t option;
  comm_mode : comm_mode;
  memories : (int, chunk) Hashtbl.t array;  (* array id -> chunk, per PE *)
  ids : int Names.t;
  mutable names : string array;  (* id -> name, [0, n_names) valid *)
  mutable n_names : int;
  homes : (int * int, int) Hashtbl.t;  (* (aid, packed el) -> home PE *)
  mutable dist_time : float;
  compute : float array;
  service_time : float array;  (* per PE, subset of compute *)
  iterations : int array;
  mutable messages : int;
  mutable volume : int;
  mutable serviced_reads : int;
  mutable serviced_writes : int;
  mutable retries : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable events : sent list;  (* newest first *)
  mutable obs : Cf_obs.Trace.t;
  journal : jentry array;  (* per PE, reset at every delta capture *)
  mutable chain : chain option;  (* live delta chain, if any *)
  mutable generation : int;  (* bumps at every capture / chain restart *)
}

let create ?faults ?(obs = Cf_obs.Trace.null) ?(comm_mode = `Strict) topology
    cost =
  let p = Topology.size topology in
  {
    topology;
    cost;
    faults;
    comm_mode;
    obs;
    memories = Array.init p (fun _ -> Hashtbl.create 64);
    ids = Names.create 64;
    names = Array.make 16 "";
    n_names = 0;
    homes = Hashtbl.create 64;
    dist_time = 0.;
    compute = Array.make p 0.;
    service_time = Array.make p 0.;
    iterations = Array.make p 0;
    messages = 0;
    volume = 0;
    serviced_reads = 0;
    serviced_writes = 0;
    retries = 0;
    dropped = 0;
    corrupted = 0;
    events = [];
    journal =
      Array.init p (fun _ ->
          { j_cleared = false;
            j_whole = Hashtbl.create 8;
            j_cells = Hashtbl.create 8 });
    chain = None;
    generation = 0;
  }

let topology m = m.topology
let cost m = m.cost
let faults m = m.faults
let comm_mode m = m.comm_mode
let obs m = m.obs
let set_obs m t = m.obs <- t

(* The simulated clocks the trace lanes run on: the host lane advances
   with distribution time, PE lane [pe] with distribution + that PE's
   compute — both nondecreasing, so every lane is monotone. *)
let host_now m = m.dist_time
let pe_now m pe = m.dist_time +. m.compute.(pe)

let check_pe m pe =
  if pe < 0 || pe >= Topology.size m.topology then
    invalid_arg "Machine: processor rank out of range"

(* {2 Interning and coordinate packing}

   Plain names are interned to dense ids below [copy_base].  Block
   [j]'s copy of array [aid] (named [A#j]) needs no entry: its id is
   [j · copy_base + aid], so copies cost neither a string nor a table
   entry, and every copy name maps back to the same id on sight. *)

let copy_bits = 24
let copy_base = 1 lsl copy_bits
let max_block = max_int lsr copy_bits

(* [base#j] with [base] non-empty and free of ['#'], [j] a positive
   decimal without a leading zero: the block copy [(base, j)]. *)
let parse_copy a =
  match String.index_opt a '#' with
  | None | Some 0 -> None
  | Some i ->
    let n = String.length a in
    if i + 1 >= n || a.[i + 1] = '0' then None
    else begin
      let j = ref 0 and ok = ref true in
      for k = i + 1 to n - 1 do
        match a.[k] with
        | '0' .. '9' as c when !ok ->
          let d = Char.code c - Char.code '0' in
          if !j > (max_block - d) / 10 then ok := false
          else j := (!j * 10) + d
        | _ -> ok := false
      done;
      if !ok then Some (String.sub a 0 i, !j) else None
    end

let intern m a =
  match Names.find_opt m.ids a with
  | Some id -> id
  | None ->
    let id = m.n_names in
    if id >= copy_base then failwith "Machine: too many array names";
    if id = Array.length m.names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit m.names 0 bigger 0 id;
      m.names <- bigger
    end;
    m.names.(id) <- a;
    m.n_names <- id + 1;
    Names.add m.ids a id;
    id

let copy_id m aid j =
  if aid < 0 || aid >= m.n_names || String.contains m.names.(aid) '#' then
    invalid_arg "Machine.copy_id: not a plain array id";
  if j < 1 || j > max_block then invalid_arg "Machine.copy_id: block out of range";
  (j lsl copy_bits) lor aid

let array_id m a =
  match parse_copy a with
  | Some (base, j) -> copy_id m (intern m base) j
  | None -> intern m a

let find_array_id m a =
  match parse_copy a with
  | Some (base, j) ->
    Option.map (fun aid -> copy_id m aid j) (Names.find_opt m.ids base)
  | None -> Names.find_opt m.ids a

let array_name m id =
  let aid = id land (copy_base - 1) in
  if id < 0 || aid >= m.n_names then invalid_arg "Machine.array_name: unknown id";
  if id < copy_base then m.names.(aid)
  else m.names.(aid) ^ "#" ^ string_of_int (id lsr copy_bits)

(* Coordinates pack into one int: [59/d] bits per coordinate (biased to
   admit negatives), arity in the low 3 bits so arities cannot collide.
   d = 3 leaves ±2^18 per subscript — far beyond simulated arrays. *)
let pack_bits = [| 0; 59; 29; 19; 14; 11; 9; 8 |]

let pack_coords el =
  let d = Array.length el in
  if d = 0 then 0
  else if d > 7 then
    invalid_arg "Machine: arrays beyond 7 dimensions are unsupported"
  else begin
    let bits = pack_bits.(d) in
    let bias = 1 lsl (bits - 1) in
    let mask = (1 lsl bits) - 1 in
    let acc = ref 0 in
    for i = 0 to d - 1 do
      let b = el.(i) + bias in
      if b < 0 || b > mask then
        invalid_arg "Machine: subscript magnitude exceeds packable range";
      acc := (!acc lsl bits) lor b
    done;
    (!acc lsl 3) lor d
  end

let unpack_coords key =
  let d = key land 7 in
  if d = 0 then [||]
  else begin
    let bits = pack_bits.(d) in
    let bias = 1 lsl (bits - 1) in
    let mask = (1 lsl bits) - 1 in
    let v = key lsr 3 in
    Array.init d (fun i -> ((v lsr ((d - 1 - i) * bits)) land mask) - bias)
  end

(* {2 Chunks} *)

let flat_offset lo extents el =
  let d = Array.length lo in
  if Array.length el <> d then -1
  else begin
    let off = ref 0 and ok = ref true in
    for i = 0 to d - 1 do
      let c = el.(i) - lo.(i) in
      if c < 0 || c >= extents.(i) then ok := false
      else off := (!off * extents.(i)) + c
    done;
    if !ok then !off else -1
  end

let chunk_count = function
  | Sparse tbl -> Hashtbl.length tbl
  | Flat f -> f.count

let chunk_iter f = function
  | Sparse tbl -> Hashtbl.iter (fun key v -> f (unpack_coords key) v) tbl
  | Flat fl ->
    let d = Array.length fl.lo in
    let el = Array.copy fl.lo in
    let n = Array.length fl.data in
    for off = 0 to n - 1 do
      if Bytes.get fl.present off <> '\000' then f (Array.copy el) fl.data.(off);
      (* Row-major increment of [el] within the box. *)
      let j = ref (d - 1) in
      let carry = ref true in
      while !carry && !j >= 0 do
        el.(!j) <- el.(!j) + 1;
        if el.(!j) - fl.lo.(!j) >= fl.extents.(!j) then begin
          el.(!j) <- fl.lo.(!j);
          decr j
        end
        else carry := false
      done
    done

let demote chunk =
  let tbl = Hashtbl.create (2 * chunk_count chunk) in
  chunk_iter (fun el v -> Hashtbl.replace tbl (pack_coords el) v) chunk;
  tbl

(* Deep-copy a chunk for a snapshot.  The copy's dirty bitmap starts
   clean: snapshots never consult it, and a copy installed as a live
   chunk begins a fresh journal window anyway. *)
let copy_chunk = function
  | Sparse tbl -> Sparse (Hashtbl.copy tbl)
  | Flat f ->
    Flat
      { f with
        data = Array.copy f.data;
        present = Bytes.copy f.present;
        dirty = Bytes.make (Bytes.length f.dirty) '\000' }

(* Packed key for row-major offset [off] of a flat box. *)
let flat_key lo extents off =
  let d = Array.length lo in
  let el = Array.make d 0 in
  let rem = ref off in
  for i = d - 1 downto 0 do
    el.(i) <- (!rem mod extents.(i)) + lo.(i);
    rem := !rem / extents.(i)
  done;
  pack_coords el

(* Visit every dirty offset of a flat chunk, skipping clean regions
   eight presence bytes at a time. *)
let iter_flat_dirty_offsets dirty f =
  let n = Bytes.length dirty in
  let off = ref 0 in
  while !off < n do
    if !off + 8 <= n && Bytes.get_int64_ne dirty !off = 0L then off := !off + 8
    else begin
      if Bytes.unsafe_get dirty !off <> '\000' then f !off;
      incr off
    end
  done

(* The per-(pe, array) key set sparse writes journal into.  The table
   identity is stable across captures ([Hashtbl.reset], never replace),
   so bound writer closures keep journaling after a checkpoint. *)
let jcells m pe aid =
  let j = m.journal.(pe) in
  match Hashtbl.find_opt j.j_cells aid with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 32 in
    Hashtbl.add j.j_cells aid t;
    t

let chunk_store m pe aid el v =
  let memories = m.memories in
  match Hashtbl.find_opt memories.(pe) aid with
  | None ->
    let key = pack_coords el in
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace tbl key v;
    Hashtbl.replace memories.(pe) aid (Sparse tbl);
    Hashtbl.replace (jcells m pe aid) key ()
  | Some (Sparse tbl) ->
    let key = pack_coords el in
    Hashtbl.replace tbl key v;
    Hashtbl.replace (jcells m pe aid) key ()
  | Some (Flat fl) ->
    let off = flat_offset fl.lo fl.extents el in
    if off >= 0 then begin
      if Bytes.get fl.present off = '\000' then begin
        Bytes.set fl.present off '\001';
        fl.count <- fl.count + 1
      end;
      fl.data.(off) <- v;
      Bytes.unsafe_set fl.dirty off '\001'
    end
    else begin
      (* Outside the compacted box: fall back to sparse.  The flat
         bitmap dies with the representation, so fold its dirty
         offsets into the journal first. *)
      let cells = jcells m pe aid in
      iter_flat_dirty_offsets fl.dirty (fun o ->
          if Bytes.unsafe_get fl.present o <> '\000' then
            Hashtbl.replace cells (flat_key fl.lo fl.extents o) ());
      let tbl = demote (Flat fl) in
      let key = pack_coords el in
      Hashtbl.replace tbl key v;
      Hashtbl.replace memories.(pe) aid (Sparse tbl);
      Hashtbl.replace cells key ()
    end

let chunk_find memories pe aid el =
  match Hashtbl.find_opt memories.(pe) aid with
  | None -> None
  | Some (Sparse tbl) -> Hashtbl.find_opt tbl (pack_coords el)
  | Some (Flat fl) ->
    let off = flat_offset fl.lo fl.extents el in
    if off >= 0 && Bytes.get fl.present off <> '\000' then Some fl.data.(off)
    else None

(* Overwrite an element already present; false when absent. *)
let chunk_update m pe aid el v =
  match Hashtbl.find_opt m.memories.(pe) aid with
  | None -> false
  | Some (Sparse tbl) ->
    let key = pack_coords el in
    Hashtbl.mem tbl key
    && begin
         Hashtbl.replace tbl key v;
         Hashtbl.replace (jcells m pe aid) key ();
         true
       end
  | Some (Flat fl) ->
    let off = flat_offset fl.lo fl.extents el in
    off >= 0
    && Bytes.get fl.present off <> '\000'
    && begin
         fl.data.(off) <- v;
         Bytes.unsafe_set fl.dirty off '\001';
         true
       end

(* {2 Remote-access servicing (comm_mode = `Service)}

   In service mode a local miss is routed as one point-to-point message
   to the element's {e home} — the (unique under fallback allocation)
   PE holding a copy — charged at the paper's pipelined model
   [t_start + hops·t_comm] on the accessing PE's clock.  Reads fetch the
   home's value without caching it locally (each access pays), writes
   update the home copy in place.  The home directory is a lazy cache
   over an ascending-PE scan and is re-validated on every hit, so
   recovery-style chunk movement cannot serve stale owners.  An element
   held {e nowhere} still raises {!Remote_access}: servicing covers
   planned residual communication, not allocation bugs. *)

let find_home m aid el =
  let key = (aid, pack_coords el) in
  let cached =
    match Hashtbl.find_opt m.homes key with
    | Some pe -> (
      match chunk_find m.memories pe aid el with
      | Some v -> Some (pe, v)
      | None -> None)
    | None -> None
  in
  match cached with
  | Some _ -> cached
  | None ->
    let p = Topology.size m.topology in
    let rec scan pe =
      if pe >= p then None
      else
        match chunk_find m.memories pe aid el with
        | Some v ->
          Hashtbl.replace m.homes key pe;
          Some (pe, v)
        | None -> scan (pe + 1)
    in
    scan 0

let charge_service m ~pe ~home ~aid kind =
  let hops = max 1 (Topology.distance m.topology pe home) in
  let dur = Cost.message m.cost ~hops ~size:1 in
  let t0 = m.dist_time +. m.compute.(pe) in
  m.compute.(pe) <- m.compute.(pe) +. dur;
  m.service_time.(pe) <- m.service_time.(pe) +. dur;
  (match kind with
  | `Read -> m.serviced_reads <- Cost.sat_add m.serviced_reads 1
  | `Write -> m.serviced_writes <- Cost.sat_add m.serviced_writes 1);
  if Cf_obs.Trace.enabled m.obs then
    Cf_obs.Trace.complete m.obs ~lane:pe ~cat:"comm" ~ts:t0 ~dur
      (match kind with `Read -> "fetch" | `Write -> "update")
      ~args:
        [ ("array", Cf_obs.Trace.Str (array_name m aid));
          ("home", Cf_obs.Trace.Int home) ]

(* Miss handlers: every read/write path that fails to find the element
   locally lands here with an element array it owns.  Strict machines
   abort exactly as before; service machines consult the directory. *)
let read_miss m pe aid el =
  match m.comm_mode with
  | `Strict ->
    raise (Remote_access { pe; array = array_name m aid; element = el })
  | `Service -> (
    match find_home m aid el with
    | Some (home, v) ->
      charge_service m ~pe ~home ~aid `Read;
      v
    | None ->
      raise (Remote_access { pe; array = array_name m aid; element = el }))

let write_miss m pe aid el v =
  match m.comm_mode with
  | `Strict ->
    raise (Remote_access { pe; array = array_name m aid; element = el })
  | `Service -> (
    match find_home m aid el with
    | Some (home, _) ->
      charge_service m ~pe ~home ~aid `Write;
      if not (chunk_update m home aid el v) then
        raise (Remote_access { pe; array = array_name m aid; element = el })
    | None ->
      raise (Remote_access { pe; array = array_name m aid; element = el }))

(* {2 The public string-keyed API (delegates to the id layer)} *)

let store_id m ~pe aid el v =
  check_pe m pe;
  chunk_store m pe aid el v

let read_id m ~pe aid el =
  check_pe m pe;
  match chunk_find m.memories pe aid el with
  | Some v -> v
  | None -> read_miss m pe aid (Array.copy el)

let write_id m ~pe aid el v =
  check_pe m pe;
  if not (chunk_update m pe aid el v) then
    write_miss m pe aid (Array.copy el) v

let holds_id m ~pe aid el =
  check_pe m pe;
  chunk_find m.memories pe aid el <> None

(* The one wholesale install: the chunk replaces whatever (pe, aid)
   held, and the journal records the replacement as a whole — it
   supersedes any journaled cells, so the next delta capture copies the
   chunk once instead of cell by cell. *)
let install m ~pe aid chunk =
  Hashtbl.replace m.memories.(pe) aid chunk;
  let j = m.journal.(pe) in
  Hashtbl.replace j.j_whole aid ();
  match Hashtbl.find_opt j.j_cells aid with
  | Some t -> Hashtbl.reset t
  | None -> ()

let install_chunk m ~pe aid chunk =
  check_pe m pe;
  install m ~pe aid chunk

let install_id m ~pe aid tbl = install_chunk m ~pe aid (Sparse tbl)

(* {2 Block-bound accessors (compiled execution fast path)}

   Each factory resolves the (pe, array) chunk once and returns a
   closure reading or updating it directly — no per-access map lookup,
   and for flat chunks no coordinate packing.  The closure is valid
   only while the chunk binding is unchanged: execution never replaces
   chunks (writes go through the update path below), and the executors
   re-bind per block, so recovery swapping chunks between rounds is
   safe.  Miss semantics are exactly [read_id]/[write_id]'s: in strict
   mode Remote_access with a copied element (including rank
   mismatches), in service mode the miss is serviced as a message. *)

let reader m ~pe aid =
  check_pe m pe;
  match Hashtbl.find_opt m.memories.(pe) aid with
  | None -> fun el -> read_miss m pe aid (Array.copy el)
  | Some (Sparse tbl) -> (
    fun el ->
      match Hashtbl.find_opt tbl (pack_coords el) with
      | Some v -> v
      | None -> read_miss m pe aid (Array.copy el))
  | Some (Flat fl) ->
    let lo = fl.lo and extents = fl.extents in
    let data = fl.data and present = fl.present in
    fun el ->
      let off = flat_offset lo extents el in
      if off >= 0 && Bytes.unsafe_get present off <> '\000' then
        Array.unsafe_get data off
      else read_miss m pe aid (Array.copy el)

let flat_view m ~pe aid =
  check_pe m pe;
  match Hashtbl.find_opt m.memories.(pe) aid with
  | Some (Flat fl) ->
    Some
      { lo = fl.lo; extents = fl.extents; data = fl.data;
        present = fl.present; dirty = fl.dirty }
  | _ -> None

let writer m ~pe aid =
  check_pe m pe;
  match Hashtbl.find_opt m.memories.(pe) aid with
  | None -> fun el v -> write_miss m pe aid (Array.copy el) v
  | Some (Sparse tbl) ->
    let cells = jcells m pe aid in
    fun el v ->
      let key = pack_coords el in
      if Hashtbl.mem tbl key then begin
        Hashtbl.replace tbl key v;
        Hashtbl.replace cells key ()
      end
      else write_miss m pe aid (Array.copy el) v
  | Some (Flat fl) ->
    let lo = fl.lo and extents = fl.extents in
    let data = fl.data and present = fl.present and dirty = fl.dirty in
    fun el v ->
      let off = flat_offset lo extents el in
      if off >= 0 && Bytes.unsafe_get present off <> '\000' then begin
        Array.unsafe_set data off v;
        Bytes.unsafe_set dirty off '\001'
      end
      else write_miss m pe aid (Array.copy el) v

let store m ~pe a el v = store_id m ~pe (array_id m a) el v

let read m ~pe a el =
  check_pe m pe;
  match find_array_id m a with
  | Some aid -> read_id m ~pe aid el
  | None -> raise (Remote_access { pe; array = a; element = Array.copy el })

let write m ~pe a el v =
  check_pe m pe;
  match find_array_id m a with
  | Some aid -> write_id m ~pe aid el v
  | None -> raise (Remote_access { pe; array = a; element = Array.copy el })

let holds m ~pe a el =
  check_pe m pe;
  match find_array_id m a with
  | Some aid -> holds_id m ~pe aid el
  | None -> false

let local_elements m ~pe =
  check_pe m pe;
  let acc = ref [] in
  Hashtbl.iter
    (fun aid chunk ->
      let a = array_name m aid in
      chunk_iter (fun el v -> acc := (a, el, v) :: !acc) chunk)
    m.memories.(pe);
  List.sort compare !acc

(* {2 Compaction} *)

(* The flat-vs-sparse policy, shared by {!compact}'s promotion and by
   callers that build chunks off-machine: a flat buffer pays off once
   it fills at least an eighth of its bounding box (small boxes are
   always worth it, a one-element chunk included). *)
let flat_worthy ~volume ~count =
  volume <= 1 lsl 24 && volume <= max (8 * count) 1024

let sparse_chunk tbl = Sparse tbl

let flat_chunk ~lo ~extents ~data ~present ~count =
  let volume = Array.length data in
  if
    Array.length lo <> Array.length extents
    || Array.fold_left ( * ) 1 extents <> volume
    || Bytes.length present <> volume
  then invalid_arg "Machine.flat_chunk: buffers disagree with the box";
  let flat =
    Flat
      { lo; extents; data; present;
        dirty = Bytes.make volume '\000';
        count }
  in
  if flat_worthy ~volume ~count then flat else Sparse (demote flat)

(* The chunk {!compact} would make of an element list (a later binding
   of an element wins), built flat straight from the list when its box
   qualifies, so no table is built only to be promoted.  Every element
   is packed first, which bounds each coordinate (and so the volume)
   and raises where a table build would. *)
let chunk_of_elements elements =
  let n = List.length elements in
  let sparse () =
    let tbl = Hashtbl.create (2 * n) in
    List.iter (fun (el, v) -> Hashtbl.replace tbl (pack_coords el) v) elements;
    Sparse tbl
  in
  match elements with
  | [] -> sparse ()
  | (first, _) :: _ ->
    let d = Array.length first in
    let lo = Array.copy first and hi = Array.copy first in
    let uniform = ref (d >= 1) in
    List.iter
      (fun (el, _) ->
        ignore (pack_coords el);
        if Array.length el <> d then uniform := false
        else
          for p = 0 to d - 1 do
            if el.(p) < lo.(p) then lo.(p) <- el.(p);
            if el.(p) > hi.(p) then hi.(p) <- el.(p)
          done)
      elements;
    let extents = Array.init d (fun p -> hi.(p) - lo.(p) + 1) in
    let volume = Array.fold_left ( * ) 1 extents in
    if not (!uniform && flat_worthy ~volume ~count:n) then sparse ()
    else begin
      let data = Array.make volume 0 and present = Bytes.make volume '\000' in
      let count = ref 0 in
      List.iter
        (fun (el, v) ->
          let off = flat_offset lo extents el in
          if Bytes.get present off = '\000' then begin
            Bytes.set present off '\001';
            incr count
          end;
          data.(off) <- v)
        elements;
      flat_chunk ~lo ~extents ~data ~present ~count:!count
    end

(* Promote a sparse chunk when it is populated enough that a flat
   buffer over its bounding box is clearly a win.  Mixed-arity chunks
   (never produced by the compiler pipeline) stay sparse. *)
let promote tbl =
  let n = Hashtbl.length tbl in
  if n = 0 then None
  else begin
    (* Both passes decode the packed keys in place — no per-element
       arrays; this runs once over every allocated word. *)
    let d = ref (-1) and mixed = ref false in
    let lo = ref [||] and hi = ref [||] in
    Hashtbl.iter
      (fun key _ ->
        let kd = key land 7 in
        if !d < 0 then begin
          d := kd;
          lo := unpack_coords key;
          hi := Array.copy !lo
        end
        else if kd <> !d then mixed := true
        else begin
          let bits = pack_bits.(kd) in
          let bias = 1 lsl (bits - 1) in
          let mask = (1 lsl bits) - 1 in
          let v = key lsr 3 in
          for i = 0 to kd - 1 do
            let c = ((v lsr ((kd - 1 - i) * bits)) land mask) - bias in
            if c < !lo.(i) then !lo.(i) <- c;
            if c > !hi.(i) then !hi.(i) <- c
          done
        end)
      tbl;
    if !mixed || !d <= 0 then None
    else begin
      let d = !d in
      let lo = !lo and hi = !hi in
      let extents = Array.init d (fun i -> hi.(i) - lo.(i) + 1) in
      let volume = Array.fold_left ( * ) 1 extents in
      if not (flat_worthy ~volume ~count:n) then None
      else begin
        let data = Array.make volume 0 in
        let present = Bytes.make volume '\000' in
        let bits = pack_bits.(d) in
        let bias = 1 lsl (bits - 1) in
        let mask = (1 lsl bits) - 1 in
        Hashtbl.iter
          (fun key v ->
            let kv = key lsr 3 in
            let off = ref 0 in
            for i = 0 to d - 1 do
              let c = ((kv lsr ((d - 1 - i) * bits)) land mask) - bias in
              off := (!off * extents.(i)) + (c - lo.(i))
            done;
            Bytes.set present !off '\001';
            data.(!off) <- v)
          tbl;
        Some
          (Flat
             { lo;
               extents;
               data;
               present;
               dirty = Bytes.make volume '\000';
               count = n })
      end
    end
  end

let copy_memory mem =
  let out = Hashtbl.create (max 16 (Hashtbl.length mem)) in
  Hashtbl.iter (fun aid chunk -> Hashtbl.replace out aid (copy_chunk chunk)) mem;
  out

(* Restart the journal: reset every PE's entry and zero every flat
   dirty bitmap — all in place, so bound closures stay live. *)
let reset_journal m =
  Array.iter
    (fun j ->
      j.j_cleared <- false;
      Hashtbl.reset j.j_whole;
      Hashtbl.iter (fun _ t -> Hashtbl.reset t) j.j_cells)
    m.journal;
  Array.iter
    (fun mem ->
      Hashtbl.iter
        (fun _ chunk ->
          match chunk with
          | Flat f -> Bytes.fill f.dirty 0 (Bytes.length f.dirty) '\000'
          | Sparse _ -> ())
        mem)
    m.memories

let compact m =
  (* Fault-plan machines donate the tables promotion is about to drop
     as a free full-snapshot base: the post-compaction state becomes
     generation zero of a fresh delta chain without copying a word for
     any promoted chunk, so per-round delta checkpointing costs less in
     total than one post-distribution deep copy. *)
  let donated =
    match m.faults with
    | None -> None
    | Some _ -> Some (Array.map (fun _ -> Hashtbl.create 16) m.memories)
  in
  Array.iteri
    (fun pe mem ->
      let promoted = ref [] in
      Hashtbl.iter
        (fun aid chunk ->
          match chunk with
          | Flat _ -> ()
          | Sparse tbl -> (
            match promote tbl with
            | Some flat -> promoted := (aid, tbl, flat) :: !promoted
            | None -> ()))
        mem;
      List.iter
        (fun (aid, tbl, flat) ->
          Hashtbl.replace mem aid flat;
          match donated with
          | Some base -> Hashtbl.replace base.(pe) aid (Sparse tbl)
          | None -> ())
        !promoted)
    m.memories;
  match donated with
  | None -> ()
  | Some base ->
    (* Complete the donated base with copies of whatever did not
       promote, then restart delta tracking at this generation. *)
    Array.iteri
      (fun pe mem ->
        Hashtbl.iter
          (fun aid chunk ->
            if not (Hashtbl.mem base.(pe) aid) then
              Hashtbl.replace base.(pe) aid (copy_chunk chunk))
          mem)
      m.memories;
    m.generation <- m.generation + 1;
    m.chain <- Some { c_base = base; c_deltas = []; c_len = 0 };
    reset_journal m

(* {2 Host distribution and accounting (unchanged cost model)} *)

let charge m ~words =
  m.dist_time <-
    m.dist_time +. m.cost.Cost.t_start
    +. (float_of_int words *. m.cost.Cost.t_comm);
  m.messages <- Cost.sat_add m.messages 1

(* Point-to-point charge under the fault plan: the message may be
   dropped or arrive corrupted (detected), and each attempt — failed or
   not — pays the full pipelined cost ([words] charge units) and resends
   the whole [size]-word payload. *)
let charge_send m ~words ~size =
  match m.faults with
  | None ->
    charge m ~words;
    m.volume <- Cost.sat_add m.volume size
  | Some plan ->
    let d = Cf_fault.Fault.deliver plan in
    for _ = 1 to d.Cf_fault.Fault.attempts do
      charge m ~words
    done;
    m.volume <- Cost.sat_add m.volume (d.Cf_fault.Fault.attempts * size);
    m.retries <- Cost.sat_add m.retries (d.Cf_fault.Fault.attempts - 1);
    m.dropped <- Cost.sat_add m.dropped d.Cf_fault.Fault.dropped;
    m.corrupted <- Cost.sat_add m.corrupted d.Cf_fault.Fault.corrupted

let dead_at_distribution m pe =
  match m.faults with
  | None -> false
  | Some plan -> Cf_fault.Fault.crash_during_distribution plan ~pe

(* Every distribution primitive reports itself as a complete span on
   the host lane covering exactly the simulated time it charged. *)
let obs_dist m ~t0 ?(cat = "dist") name args =
  if Cf_obs.Trace.enabled m.obs then
    Cf_obs.Trace.complete m.obs ~lane:Cf_obs.Trace.host_lane ~cat ~ts:t0
      ~dur:(m.dist_time -. t0) name ~args:(args ())

(* The one host-to-PE send charge, shared by {!host_send} and
   {!host_send_chunk}: cut-through startup + size plus pipeline fill over
   the path, under the fault plan's link noise.  A PE dead during
   distribution costs one full attempt (the missing ack reveals it) and
   raises before anything is stored. *)
let send_charge m ~pe aid ~size =
  let hops = Topology.distance m.topology 0 pe + 1 in
  let t0 = m.dist_time in
  if dead_at_distribution m pe then begin
    charge m ~words:(size + hops - 1);
    m.volume <- Cost.sat_add m.volume size;
    obs_dist m ~t0 "send" (fun () ->
        [ ("pe", Cf_obs.Trace.Int pe);
          ("array", Cf_obs.Trace.Str (array_name m aid));
          ("size", Cf_obs.Trace.Int size); ("crashed", Cf_obs.Trace.Bool true) ]);
    if Cf_obs.Trace.enabled m.obs then
      Cf_obs.Trace.mark m.obs ~lane:pe ~cat:"fault" ~ts:(pe_now m pe) "crash"
        ~args:[ ("phase", Cf_obs.Trace.Str "distribution") ];
    raise (Pe_crashed { pe })
  end;
  charge_send m ~words:(size + hops - 1) ~size;
  m.events <- Sent { pe; aid; size } :: m.events;
  obs_dist m ~t0 "send" (fun () ->
      [ ("pe", Cf_obs.Trace.Int pe);
        ("array", Cf_obs.Trace.Str (array_name m aid));
        ("size", Cf_obs.Trace.Int size) ])

(* Delivery into a fresh (pe, array) slot is one wholesale install;
   into an existing chunk it merges cell by cell, exactly as stores. *)
let deliver m ~pe aid chunk =
  if Hashtbl.mem m.memories.(pe) aid then
    chunk_iter (fun el v -> chunk_store m pe aid el v) chunk
  else if chunk_count chunk > 0 then install m ~pe aid chunk

let host_send m ~pe a elements =
  check_pe m pe;
  let size = List.length elements in
  let aid = array_id m a in
  send_charge m ~pe aid ~size;
  deliver m ~pe aid (chunk_of_elements elements)

let host_send_chunk m ~pe aid chunk =
  check_pe m pe;
  send_charge m ~pe aid ~size:(chunk_count chunk);
  deliver m ~pe aid chunk

let host_broadcast m a elements =
  let size = List.length elements in
  let hops = Topology.diameter m.topology + 1 in
  (* Store-and-forward flooding along rows and columns. *)
  let t0 = m.dist_time in
  charge m ~words:(hops * size);
  m.volume <- Cost.sat_add m.volume size;
  let aid = array_id m a in
  m.events <- Broadcast_sent { aid; size } :: m.events;
  obs_dist m ~t0 "broadcast" (fun () ->
      [ ("array", Cf_obs.Trace.Str a); ("size", Cf_obs.Trace.Int size) ]);
  for pe = 0 to Topology.size m.topology - 1 do
    List.iter (fun (el, v) -> store_id m ~pe aid el v) elements
  done

let host_multicast m ~pes a elements =
  (match pes with
  | [] -> invalid_arg "Machine.host_multicast: no targets"
  | _ -> ());
  List.iter (check_pe m) pes;
  let size = List.length elements in
  let hops =
    List.fold_left
      (fun acc pe -> max acc (Topology.distance m.topology 0 pe + 1))
      0 pes
  in
  (* Pipelined multicast: one pass down the column, one across the row —
     each element is retransmitted twice. *)
  let t0 = m.dist_time in
  charge m ~words:((2 * size) + hops);
  m.volume <- Cost.sat_add m.volume size;
  let aid = array_id m a in
  m.events <- Multicast_sent { pes; aid; size } :: m.events;
  obs_dist m ~t0 "multicast" (fun () ->
      [ ("targets", Cf_obs.Trace.Int (List.length pes));
        ("array", Cf_obs.Trace.Str a); ("size", Cf_obs.Trace.Int size) ]);
  List.iter
    (fun pe -> List.iter (fun (el, v) -> store_id m ~pe aid el v) elements)
    pes

let run_iterations m ~pe count =
  check_pe m pe;
  if count < 0 then invalid_arg "Machine.run_iterations";
  match m.faults with
  | Some plan
    when (match Cf_fault.Fault.crash_point plan ~pe with
         | Some k -> Cost.sat_add m.iterations.(pe) count >= k
         | None -> false) ->
    (* The PE completes work up to its crash threshold, charges exactly
       that much, and dies.  Once dead its clock is frozen: every later
       call lands here with a zero-iteration partial charge. *)
    let k = Option.get (Cf_fault.Fault.crash_point plan ~pe) in
    let partial = max 0 (k - m.iterations.(pe)) in
    m.compute.(pe) <- m.compute.(pe) +. Cost.compute m.cost ~iterations:partial;
    m.iterations.(pe) <- Cost.sat_add m.iterations.(pe) partial;
    if Cf_obs.Trace.enabled m.obs then
      Cf_obs.Trace.mark m.obs ~lane:pe ~cat:"fault" ~ts:(pe_now m pe) "crash"
        ~args:[ ("iterations", Cf_obs.Trace.Int m.iterations.(pe)) ];
    raise (Pe_crashed { pe })
  | _ ->
    m.compute.(pe) <- m.compute.(pe) +. Cost.compute m.cost ~iterations:count;
    m.iterations.(pe) <- Cost.sat_add m.iterations.(pe) count

let distribution_time m = m.dist_time

let compute_time m ~pe =
  check_pe m pe;
  m.compute.(pe)

let max_compute_time m = Array.fold_left max 0. m.compute
let makespan m = m.dist_time +. max_compute_time m
let message_count m = m.messages
let message_volume m = m.volume
let serviced_reads m = m.serviced_reads
let serviced_writes m = m.serviced_writes
let serviced_messages m = Cost.sat_add m.serviced_reads m.serviced_writes

(* One word per serviced access: elements are scalar words, so message
   count and transferred volume coincide for the service channel. *)
let serviced_words m = serviced_messages m

let service_time m ~pe =
  check_pe m pe;
  m.service_time.(pe)

let retries m = m.retries
let dropped_messages m = m.dropped
let corrupted_messages m = m.corrupted

let iterations_of m ~pe =
  check_pe m pe;
  m.iterations.(pe)

let memory_words m ~pe =
  check_pe m pe;
  Hashtbl.fold (fun _ chunk acc -> acc + chunk_count chunk) m.memories.(pe) 0

let reset_stats m =
  m.dist_time <- 0.;
  m.messages <- 0;
  m.volume <- 0;
  m.serviced_reads <- 0;
  m.serviced_writes <- 0;
  m.retries <- 0;
  m.dropped <- 0;
  m.corrupted <- 0;
  m.events <- [];
  Array.fill m.compute 0 (Array.length m.compute) 0.;
  Array.fill m.service_time 0 (Array.length m.service_time) 0.;
  Array.fill m.iterations 0 (Array.length m.iterations) 0

(* {2 Checkpoint and recovery} *)

(* A checkpoint is either a full deep copy of every PE's local memory
   ([`Full], the differential reference implementation) or a reference
   into a delta chain ([`Delta], the default): one shared full-snapshot
   base plus the prefix of per-window write deltas captured up to the
   checkpoint.  Delta capture cost is O(writes since the previous
   capture); restore and recovery replay base + live deltas. *)

type checkpoint =
  | Full of (int, chunk) Hashtbl.t array
  | Partial of { chain : chain; upto : int; words : int }

(* Chains longer than this restart from a fresh full base, bounding
   replay cost for restore/recovery. *)
let max_chain = 32

let snapshot_words saved =
  Array.fold_left
    (fun acc mem ->
      Hashtbl.fold (fun _ chunk acc -> acc + chunk_count chunk) mem acc)
    0 saved

let chunk_find_key mem aid key =
  match Hashtbl.find_opt mem aid with
  | None -> None
  | Some (Sparse tbl) -> Hashtbl.find_opt tbl key
  | Some (Flat fl) ->
    let off = flat_offset fl.lo fl.extents (unpack_coords key) in
    if off >= 0 && Bytes.get fl.present off <> '\000' then Some fl.data.(off)
    else None

(* Capture everything written since the last capture, reading current
   values (latest-wins: a cell written many times costs one word), then
   reset the journal in place. *)
let capture_delta m =
  let p = Array.length m.memories in
  let d_cleared = Array.make p false in
  let d_whole = Hashtbl.create 16 in
  let d_cells = Hashtbl.create 64 in
  let words = ref 0 in
  let cells_for pe aid =
    match Hashtbl.find_opt d_cells (pe, aid) with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 32 in
      Hashtbl.add d_cells (pe, aid) t;
      t
  in
  let record pe aid key v =
    let out = cells_for pe aid in
    if not (Hashtbl.mem out key) then incr words;
    Hashtbl.replace out key v
  in
  for pe = 0 to p - 1 do
    let j = m.journal.(pe) in
    if j.j_cleared then d_cleared.(pe) <- true;
    Hashtbl.iter
      (fun aid () ->
        match Hashtbl.find_opt m.memories.(pe) aid with
        | None -> ()
        | Some chunk ->
          Hashtbl.replace d_whole (pe, aid) (copy_chunk chunk);
          words := !words + chunk_count chunk)
      j.j_whole;
    Hashtbl.iter
      (fun aid keys ->
        if not (Hashtbl.mem j.j_whole aid) then
          Hashtbl.iter
            (fun key () ->
              match chunk_find_key m.memories.(pe) aid key with
              | Some v -> record pe aid key v
              | None -> ())
            keys)
      j.j_cells;
    Hashtbl.iter
      (fun aid chunk ->
        match chunk with
        | Sparse _ -> ()
        | Flat fl ->
          if not (Hashtbl.mem j.j_whole aid) then
            iter_flat_dirty_offsets fl.dirty (fun off ->
                if Bytes.unsafe_get fl.present off <> '\000' then
                  record pe aid (flat_key fl.lo fl.extents off) fl.data.(off)))
      m.memories.(pe)
  done;
  reset_journal m;
  { d_cleared; d_whole; d_cells; d_words = !words }

let obs_checkpoint m ~kind ~words ~len =
  if Cf_obs.Trace.enabled m.obs then
    Cf_obs.Trace.complete m.obs ~lane:Cf_obs.Trace.host_lane ~cat:"ckpt"
      ~ts:m.dist_time ~dur:0. "checkpoint"
      ~args:
        [ ("kind", Cf_obs.Trace.Str kind);
          ("words", Cf_obs.Trace.Int words);
          ("chain", Cf_obs.Trace.Int len);
          ("generation", Cf_obs.Trace.Int m.generation) ]

let checkpoint ?(mode = `Delta) m =
  m.generation <- m.generation + 1;
  match mode with
  | `Full ->
    let saved = Array.map copy_memory m.memories in
    obs_checkpoint m ~kind:"full" ~words:(snapshot_words saved) ~len:0;
    Full saved
  | `Delta -> (
    match m.chain with
    | Some chain when chain.c_len < max_chain ->
      let d = capture_delta m in
      chain.c_deltas <- chain.c_deltas @ [ d ];
      chain.c_len <- chain.c_len + 1;
      obs_checkpoint m ~kind:"delta" ~words:d.d_words ~len:chain.c_len;
      Partial { chain; upto = chain.c_len; words = d.d_words }
    | _ ->
      let base = Array.map copy_memory m.memories in
      let chain = { c_base = base; c_deltas = []; c_len = 0 } in
      m.chain <- Some chain;
      reset_journal m;
      let words = snapshot_words base in
      obs_checkpoint m ~kind:"base" ~words ~len:0;
      Partial { chain; upto = 0; words })

let checkpoint_words = function
  | Full saved -> snapshot_words saved
  | Partial { words; _ } -> words

let generation m = m.generation

(* Live journal size: words a delta capture would copy right now. *)
let journal_words m =
  let words = ref 0 in
  Array.iteri
    (fun pe mem ->
      let j = m.journal.(pe) in
      Hashtbl.iter
        (fun aid () ->
          match Hashtbl.find_opt mem aid with
          | Some chunk -> words := !words + chunk_count chunk
          | None -> ())
        j.j_whole;
      Hashtbl.iter
        (fun aid keys ->
          if not (Hashtbl.mem j.j_whole aid) then
            words := !words + Hashtbl.length keys)
        j.j_cells;
      Hashtbl.iter
        (fun aid chunk ->
          match chunk with
          | Flat fl when not (Hashtbl.mem j.j_whole aid) ->
            iter_flat_dirty_offsets fl.dirty (fun off ->
                if Bytes.unsafe_get fl.present off <> '\000' then incr words)
          | _ -> ())
        mem)
    m.memories;
  !words

(* Reconstruction-side store: chunk_store semantics on a bare memory
   table, keyed by packed coordinates and free of journaling. *)
let mem_store mem aid key v =
  match Hashtbl.find_opt mem aid with
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace tbl key v;
    Hashtbl.replace mem aid (Sparse tbl)
  | Some (Sparse tbl) -> Hashtbl.replace tbl key v
  | Some (Flat fl) ->
    let off = flat_offset fl.lo fl.extents (unpack_coords key) in
    if off >= 0 then begin
      if Bytes.get fl.present off = '\000' then begin
        Bytes.set fl.present off '\001';
        fl.count <- fl.count + 1
      end;
      fl.data.(off) <- v
    end
    else begin
      let tbl = demote (Flat fl) in
      Hashtbl.replace tbl key v;
      Hashtbl.replace mem aid (Sparse tbl)
    end

let ckpt_procs = function
  | Full saved -> Array.length saved
  | Partial { chain; _ } -> Array.length chain.c_base

(* Rebuild one PE's memory (optionally a single array) as of the
   checkpoint: copy the base, then replay each delta in order — clear,
   wholesale replacements, then cell writes. *)
let rebuild_pe ?only c pe =
  let want aid = match only with None -> true | Some a -> a = aid in
  let copy_filtered src =
    let out = Hashtbl.create (max 16 (Hashtbl.length src)) in
    Hashtbl.iter
      (fun aid chunk ->
        if want aid then Hashtbl.replace out aid (copy_chunk chunk))
      src;
    out
  in
  match c with
  | Full saved -> copy_filtered saved.(pe)
  | Partial { chain; upto; _ } ->
    let mem = copy_filtered chain.c_base.(pe) in
    List.iteri
      (fun i d ->
        if i < upto then begin
          if d.d_cleared.(pe) then Hashtbl.reset mem;
          Hashtbl.iter
            (fun (pe', aid) chunk ->
              if pe' = pe && want aid then
                Hashtbl.replace mem aid (copy_chunk chunk))
            d.d_whole;
          Hashtbl.iter
            (fun (pe', aid) cells ->
              if pe' = pe && want aid then
                Hashtbl.iter (fun key v -> mem_store mem aid key v) cells)
            d.d_cells
        end)
      chain.c_deltas;
    mem

(* Restored memories re-run the promotion policy.  Without this, a
   restore of a checkpoint taken before [compact] silently resurrects
   the sparse representation the compactor had since replaced (and a
   delta rebuild of a donated chunk always starts sparse), demoting the
   store behind the backs of callers that re-bind flat views. *)
let normalize_memory mem =
  let promoted = ref [] in
  Hashtbl.iter
    (fun aid chunk ->
      match chunk with
      | Flat _ -> ()
      | Sparse tbl -> (
        match promote tbl with
        | Some flat -> promoted := (aid, flat) :: !promoted
        | None -> ()))
    mem;
  List.iter (fun (aid, flat) -> Hashtbl.replace mem aid flat) !promoted

let restore m c =
  if ckpt_procs c <> Array.length m.memories then
    invalid_arg "Machine.restore: checkpoint taken on a different machine";
  Array.iteri
    (fun pe _ ->
      let mem = rebuild_pe c pe in
      normalize_memory mem;
      m.memories.(pe) <- mem)
    m.memories;
  (* The live chain journals a store that no longer exists; drop it so
     the next delta checkpoint starts from a fresh base. *)
  m.chain <- None;
  m.generation <- m.generation + 1;
  reset_journal m

let clear_pe m ~pe =
  check_pe m pe;
  m.memories.(pe) <- Hashtbl.create 16;
  let j = m.journal.(pe) in
  j.j_cleared <- true;
  Hashtbl.reset j.j_whole;
  Hashtbl.iter (fun _ t -> Hashtbl.reset t) j.j_cells

let recover_chunk m c ~from_pe ~to_pe ~aid =
  check_pe m to_pe;
  if from_pe < 0 || from_pe >= ckpt_procs c then
    invalid_arg "Machine.recover_chunk: source PE out of range";
  let rebuilt = rebuild_pe ~only:aid c from_pe in
  normalize_memory rebuilt;
  match Hashtbl.find_opt rebuilt aid with
  | None -> 0
  | Some chunk ->
    let size = chunk_count chunk in
    let hops = Topology.distance m.topology 0 to_pe + 1 in
    (* The host replays the lost data as one pipelined message, subject
       to the same link faults as the original distribution. *)
    let t0 = m.dist_time in
    charge_send m ~words:(size + hops - 1) ~size;
    m.events <- Resent { pe = to_pe; aid; size } :: m.events;
    obs_dist m ~t0 ~cat:"fault" "resend" (fun () ->
        [ ("pe", Cf_obs.Trace.Int to_pe);
          ("array", Cf_obs.Trace.Str (array_name m aid));
          ("size", Cf_obs.Trace.Int size) ]);
    (* The rebuild is already a private copy: install it wholesale. *)
    install m ~pe:to_pe aid chunk;
    size

let trace m =
  List.rev_map
    (function
      | Sent { pe; aid; size } -> Send { pe; array = array_name m aid; size }
      | Broadcast_sent { aid; size } ->
        Broadcast { array = array_name m aid; size }
      | Multicast_sent { pes; aid; size } ->
        Multicast { pes; array = array_name m aid; size }
      | Resent { pe; aid; size } -> Resend { pe; array = array_name m aid; size })
    m.events

let pp_event ppf = function
  | Send { pe; array; size } ->
    Format.fprintf ppf "send %s[%d words] -> PE%d" array size pe
  | Broadcast { array; size } ->
    Format.fprintf ppf "broadcast %s[%d words] -> all" array size
  | Multicast { pes; array; size } ->
    Format.fprintf ppf "multicast %s[%d words] -> {%s}" array size
      (String.concat "," (List.map string_of_int pes))
  | Resend { pe; array; size } ->
    Format.fprintf ppf "resend %s[%d words] -> PE%d (recovery)" array size pe

let pp_stats ppf m =
  Format.fprintf ppf
    "@[<v>%a: %d msg(s), %d words, dist %.6fs, max compute %.6fs, makespan %.6fs%t@]"
    Topology.pp m.topology m.messages m.volume m.dist_time
    (max_compute_time m) (makespan m)
    (fun ppf ->
      if serviced_messages m > 0 then
        Format.fprintf ppf ", %d serviced (%d read, %d write)"
          (serviced_messages m) m.serviced_reads m.serviced_writes)
