open Cf_loop
module Machine = Cf_machine.Machine

(* A flat host array: row-major over [lo .. lo + extents − 1] with
   [strides] precomputed; [mat] marks cells whose [data] holds the
   element's value (materialized by [init] or written), [written] the
   cells a golden run wrote.  A table host array keys both by packed
   coordinates. *)
type arr =
  | Box of {
      lo : int array;
      extents : int array;
      strides : int array;
      data : int array;
      mat : Bytes.t;
      written : Bytes.t;
    }
  | Table of {
      values : (int, int) Hashtbl.t;
      written_keys : (int, unit) Hashtbl.t;
    }

type t = {
  names : string array;
  init : string -> int array -> int;
  arrs : arr array;
}

let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let strides_of extents =
  let d = Array.length extents in
  let s = Array.make d 1 in
  for p = d - 2 downto 0 do
    s.(p) <- sat_mul s.(p + 1) extents.(p + 1)
  done;
  s

let table () =
  Table { values = Hashtbl.create 64; written_keys = Hashtbl.create 64 }

(* Flat storage needs one rank the packed coordinates can express. *)
let flat_rank r = r >= 1 && r <= 7

(* Every element a site [H·i + c] reaches lies in the box interval
   arithmetic gives over the iteration box [ilo, ihi]. *)
let make ~init prog nest =
  let names = Compile.arrays prog in
  let sites = Array.concat (Array.to_list (Compile.sites prog)) in
  let arrs =
    Array.mapi
      (fun slot _ ->
        let mine =
          List.filter
            (fun (s : Compile.Site.t) -> s.Compile.Site.slot = slot)
            (Array.to_list sites)
        in
        match (Nest.bounding_box nest, mine) with
        | Some (ilo, ihi), s0 :: _
          when let r = Compile.Site.rank s0 in
               flat_rank r
               && List.for_all (fun s -> Compile.Site.rank s = r) mine ->
          let r = Compile.Site.rank s0 in
          let lo = Array.make r max_int and hi = Array.make r min_int in
          List.iter
            (fun (s : Compile.Site.t) ->
              for p = 0 to r - 1 do
                let a = ref s.Compile.Site.c.(p) and b = ref s.Compile.Site.c.(p) in
                Array.iteri
                  (fun q h ->
                    if h > 0 then begin
                      a := !a + (h * ilo.(q));
                      b := !b + (h * ihi.(q))
                    end
                    else begin
                      a := !a + (h * ihi.(q));
                      b := !b + (h * ilo.(q))
                    end)
                  s.Compile.Site.h.(p);
                lo.(p) <- min lo.(p) !a;
                hi.(p) <- max hi.(p) !b
              done)
            mine;
          let extents = Array.init r (fun p -> hi.(p) - lo.(p) + 1) in
          let volume = Array.fold_left sat_mul 1 extents in
          let evaluations =
            Array.fold_left
              (fun acc x -> sat_mul acc x)
              (List.length mine)
              (Array.map2 (fun l h -> h - l + 1) ilo ihi)
          in
          if Machine.flat_worthy ~volume ~count:evaluations then
            Box
              {
                lo;
                extents;
                strides = strides_of extents;
                data = Array.make volume 0;
                mat = Bytes.make volume '\000';
                written = Bytes.make volume '\000';
              }
          else table ()
        | _ -> table ())
      names
  in
  { names; init; arrs }

let outside () = invalid_arg "Host: element outside its array's reach"

let offset ~lo ~extents ~strides el =
  let d = Array.length lo in
  if Array.length el <> d then outside ();
  let off = ref 0 in
  for p = 0 to d - 1 do
    let c = el.(p) - lo.(p) in
    if c < 0 || c >= extents.(p) then outside ();
    off := !off + (c * strides.(p))
  done;
  !off

let coords ~lo ~extents off =
  let d = Array.length lo in
  let el = Array.make d 0 in
  let rem = ref off in
  for p = d - 1 downto 0 do
    el.(p) <- (!rem mod extents.(p)) + lo.(p);
    rem := !rem / extents.(p)
  done;
  el

(* First use of a flat cell: one [init] call on a fresh element. *)
let materialize t slot ~lo ~extents ~data ~mat off =
  let v = t.init t.names.(slot) (coords ~lo ~extents off) in
  data.(off) <- v;
  Bytes.unsafe_set mat off '\001';
  v

let value t slot el =
  match t.arrs.(slot) with
  | Box { lo; extents; strides; data; mat; _ } ->
    let off = offset ~lo ~extents ~strides el in
    if Bytes.unsafe_get mat off <> '\000' then data.(off)
    else materialize t slot ~lo ~extents ~data ~mat off
  | Table { values; _ } -> (
    let key = Machine.pack_coords el in
    match Hashtbl.find_opt values key with
    | Some v -> v
    | None ->
      let v = t.init t.names.(slot) (Array.copy el) in
      Hashtbl.add values key v;
      v)

let copy t =
  {
    t with
    arrs =
      Array.map
        (function
          | Box b ->
            Box
              {
                b with
                data = Array.copy b.data;
                mat = Bytes.copy b.mat;
                written = Bytes.make (Bytes.length b.written) '\000';
              }
          | Table { values; _ } ->
            Table
              { values = Hashtbl.copy values; written_keys = Hashtbl.create 64 })
        t.arrs;
  }

(* {2 The golden run's accessors} *)

let store t slot el v =
  match t.arrs.(slot) with
  | Box { lo; extents; strides; data; mat; written } ->
    let off = offset ~lo ~extents ~strides el in
    data.(off) <- v;
    Bytes.unsafe_set mat off '\001';
    Bytes.unsafe_set written off '\001'
  | Table { values; written_keys } ->
    let key = Machine.pack_coords el in
    Hashtbl.replace values key v;
    Hashtbl.replace written_keys key ()

let target t =
  {
    Compile.read = value t;
    write = store t;
    flat =
      (fun slot ->
        match t.arrs.(slot) with
        | Box { lo; extents; data; mat; written; _ } ->
          Some { Machine.lo; extents; data; present = mat; dirty = written }
        | Table _ -> None);
  }

let iter_written t f =
  Array.iteri
    (fun slot arr ->
      match arr with
      | Box { lo; extents; data; written; _ } ->
        let n = Bytes.length written in
        let off = ref 0 in
        while !off < n do
          if !off + 8 <= n && Bytes.get_int64_ne written !off = 0L then
            off := !off + 8
          else begin
            if Bytes.unsafe_get written !off <> '\000' then
              f slot
                (Machine.pack_coords (coords ~lo ~extents !off))
                data.(!off);
            incr off
          end
        done
      | Table { values; written_keys } ->
        Hashtbl.iter
          (fun key () -> f slot key (Hashtbl.find values key))
          written_keys)
    t.arrs

(* {2 Footprints and gathers} *)

type footprint = {
  mutable segs : int array;  (* records [rank; count; e ...; d ...] *)
  mutable len : int;
  mutable rank : int;  (* common rank; -1 while empty, -2 once mixed *)
  mutable lo : int array;
  mutable hi : int array;
  mutable bound : int;  (* upper bound on distinct elements *)
}

let footprint () =
  { segs = Array.make 256 0; len = 0; rank = -1; lo = [||]; hi = [||];
    bound = 0 }

let reset fp =
  fp.len <- 0;
  fp.rank <- -1;
  fp.bound <- 0

let add fp e d ~count =
  let r = Array.length e in
  let moving = ref false in
  for p = 0 to r - 1 do
    if d.(p) <> 0 then moving := true
  done;
  (* A standing segment covers one element however long it runs. *)
  let count = if !moving then count else 1 in
  let need = fp.len + 2 + (2 * r) in
  if need > Array.length fp.segs then begin
    let bigger = Array.make (max need (2 * Array.length fp.segs)) 0 in
    Array.blit fp.segs 0 bigger 0 fp.len;
    fp.segs <- bigger
  end;
  let s = fp.segs and i = fp.len in
  s.(i) <- r;
  s.(i + 1) <- count;
  for p = 0 to r - 1 do
    s.(i + 2 + p) <- e.(p);
    s.(i + 2 + r + p) <- (if !moving then d.(p) else 0)
  done;
  fp.len <- need;
  fp.bound <- fp.bound + count;
  if fp.rank = -1 then begin
    fp.rank <- r;
    if Array.length fp.lo <> r then begin
      fp.lo <- Array.make r 0;
      fp.hi <- Array.make r 0
    end;
    for p = 0 to r - 1 do
      fp.lo.(p) <- e.(p);
      fp.hi.(p) <- e.(p)
    done
  end
  else if fp.rank <> r then fp.rank <- -2;
  if fp.rank >= 0 then begin
    let lo = fp.lo and hi = fp.hi in
    for p = 0 to r - 1 do
      let a = e.(p) in
      let b = a + ((count - 1) * s.(i + 2 + r + p)) in
      let l = if a < b then a else b and h = if a < b then b else a in
      if l < lo.(p) then lo.(p) <- l;
      if h > hi.(p) then hi.(p) <- h
    done
  end

(* The flat gather: along a segment both the chunk offset and (for a
   flat host array) the host offset advance by constant strides, so the
   copy is a strided loop with one presence test per step. *)
let box_extents fp = Array.init fp.rank (fun p -> fp.hi.(p) - fp.lo.(p) + 1)

let gather_flat t slot fp =
  let r = fp.rank in
  let lo = Array.copy fp.lo in
  let extents = box_extents fp in
  let volume = Array.fold_left ( * ) 1 extents in
  let cstrides = strides_of extents in
  let data = Array.make volume 0 and present = Bytes.make volume '\000' in
  let count = ref 0 in
  let s = fp.segs in
  let el = Array.make r 0 in
  let i = ref 0 in
  while !i < fp.len do
    let base = !i + 2 and steps = s.(!i + 1) in
    let co = ref 0 and dco = ref 0 in
    for p = 0 to r - 1 do
      co := !co + ((s.(base + p) - lo.(p)) * cstrides.(p));
      dco := !dco + (s.(base + r + p) * cstrides.(p))
    done;
    (match t.arrs.(slot) with
    | Box { lo = hlo; extents = hext; strides; data = hdata; mat; _ } ->
      Array.blit s base el 0 r;
      let ho = ref (offset ~lo:hlo ~extents:hext ~strides el) and dho = ref 0 in
      for p = 0 to r - 1 do
        dho := !dho + (s.(base + r + p) * strides.(p))
      done;
      for _ = 1 to steps do
        if Bytes.unsafe_get present !co = '\000' then begin
          Bytes.unsafe_set present !co '\001';
          incr count;
          data.(!co) <-
            (if Bytes.unsafe_get mat !ho <> '\000' then hdata.(!ho)
             else
               materialize t slot ~lo:hlo ~extents:hext ~data:hdata ~mat !ho)
        end;
        co := !co + !dco;
        ho := !ho + !dho
      done
    | Table _ ->
      for k = 0 to steps - 1 do
        if Bytes.unsafe_get present !co = '\000' then begin
          for p = 0 to r - 1 do
            el.(p) <- s.(base + p) + (k * s.(base + r + p))
          done;
          Bytes.unsafe_set present !co '\001';
          incr count;
          data.(!co) <- value t slot el
        end;
        co := !co + !dco
      done);
    i := base + (2 * r)
  done;
  Machine.flat_chunk ~lo ~extents ~data ~present ~count:!count

let gather_sparse t slot fp =
  let tbl = Hashtbl.create (min fp.bound 1024) in
  let s = fp.segs in
  let i = ref 0 in
  let el = ref [||] in
  while !i < fp.len do
    let r = s.(!i) and steps = s.(!i + 1) and base = !i + 2 in
    if Array.length !el <> r then el := Array.make r 0;
    let el = !el in
    for k = 0 to steps - 1 do
      for p = 0 to r - 1 do
        el.(p) <- s.(base + p) + (k * s.(base + r + p))
      done;
      let key = Machine.pack_coords el in
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key (value t slot el)
    done;
    i := base + (2 * r)
  done;
  Machine.sparse_chunk tbl

let gather t slot fp =
  if fp.len = 0 then None
  else
    let flat =
      flat_rank fp.rank
      && Machine.flat_worthy ~count:fp.bound
           ~volume:(Array.fold_left sat_mul 1 (box_extents fp))
    in
    Some (if flat then gather_flat t slot fp else gather_sparse t slot fp)

(* {2 Sequentially-last writers}

   Per written cell of a host array: the largest stamp any block's kept
   left-hand site writes there and the block holding it, then the value
   that block leaves in its own copy.  Flat host arrays index cells by
   host offset; table arrays number them on first sight. *)

type wslot = {
  mutable stamp : int array;  (* largest stamp so far, min_int for none *)
  mutable owner : int array;  (* the block holding it, 0 for none *)
  mutable value : int array;  (* what the owner's copy held *)
  mutable got : Bytes.t;  (* value captured *)
  cells : (int, int) Hashtbl.t;  (* table arrays: packed key -> cell *)
  mutable keys : int array;  (* table arrays: cell -> packed key *)
}

type writers = {
  host : t;
  slots : wslot option array;
  mutable starts : int array;  (* block b's cells: [starts.(b), starts.(b+1)) *)
  mutable entries : int array;  (* (slot, cell) pairs, block by block *)
}

let writers host =
  { host; slots = Array.map (fun _ -> None) host.arrs; starts = [||];
    entries = [||] }

let wslot w slot =
  match w.slots.(slot) with
  | Some ws -> ws
  | None ->
    let n, keys =
      match w.host.arrs.(slot) with
      | Box b -> (Array.length b.data, [||])
      | Table _ -> (64, Array.make 64 0)
    in
    let ws =
      { stamp = Array.make n min_int; owner = Array.make n 0;
        value = Array.make n 0; got = Bytes.make n '\000';
        cells = Hashtbl.create (Array.length keys); keys }
    in
    w.slots.(slot) <- Some ws;
    ws

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let table_cell ws key =
  match Hashtbl.find_opt ws.cells key with
  | Some c -> c
  | None ->
    let c = Hashtbl.length ws.cells in
    if c = Array.length ws.keys then begin
      let n = 2 * c in
      ws.stamp <- grow ws.stamp n min_int;
      ws.owner <- grow ws.owner n 0;
      ws.value <- grow ws.value n 0;
      ws.keys <- grow ws.keys n 0;
      ws.got <- Bytes.extend ws.got 0 c;
      Bytes.fill ws.got c c '\000'
    end;
    Hashtbl.add ws.cells key c;
    ws.keys.(c) <- key;
    c

let claim ws cell st block =
  if st > Array.unsafe_get ws.stamp cell then begin
    Array.unsafe_set ws.stamp cell st;
    Array.unsafe_set ws.owner cell block
  end

let add_writes w slot e d ~count ~stamp ~dstamp ~block =
  let ws = wslot w slot in
  let r = Array.length e in
  let standing = ref true in
  for p = 0 to r - 1 do
    if d.(p) <> 0 then standing := false
  done;
  if !standing then begin
    (* One cell, written at every step: only the largest stamp counts. *)
    let st = if dstamp > 0 then stamp + ((count - 1) * dstamp) else stamp in
    match w.host.arrs.(slot) with
    | Box { lo; extents; strides; _ } ->
      claim ws (offset ~lo ~extents ~strides e) st block
    | Table _ -> claim ws (table_cell ws (Machine.pack_coords e)) st block
  end
  else
    match w.host.arrs.(slot) with
    | Box { lo; extents; strides; _ } ->
      let o = offset ~lo ~extents ~strides e in
      let dO = ref 0 in
      for p = 0 to r - 1 do
        dO := !dO + (d.(p) * strides.(p))
      done;
      for t = 0 to count - 1 do
        claim ws (o + (t * !dO)) (stamp + (t * dstamp)) block
      done
    | Table _ ->
      let el = Array.copy e in
      for t = 0 to count - 1 do
        for p = 0 to r - 1 do
          el.(p) <- e.(p) + (t * d.(p))
        done;
        claim ws (table_cell ws (Machine.pack_coords el))
          (stamp + (t * dstamp)) block
      done

let settle w ~blocks =
  let starts = Array.make (blocks + 2) 0 in
  let each f =
    Array.iteri
      (fun slot -> function
        | None -> ()
        | Some ws ->
          Array.iteri (fun cell b -> if b > 0 then f slot cell b) ws.owner)
      w.slots
  in
  each (fun _ _ b -> starts.(b + 1) <- starts.(b + 1) + 1);
  for b = 1 to blocks + 1 do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  let entries = Array.make (2 * starts.(blocks + 1)) 0 in
  let next = Array.sub starts 0 (blocks + 1) in
  each (fun slot cell b ->
      let k = next.(b) in
      entries.(2 * k) <- slot;
      entries.((2 * k) + 1) <- cell;
      next.(b) <- k + 1);
  w.starts <- starts;
  w.entries <- entries

let capture w ~block read =
  for k = w.starts.(block) to w.starts.(block + 1) - 1 do
    let slot = w.entries.(2 * k) and cell = w.entries.((2 * k) + 1) in
    let ws = Option.get w.slots.(slot) in
    let el =
      match w.host.arrs.(slot) with
      | Box { lo; extents; _ } -> coords ~lo ~extents cell
      | Table _ -> Machine.unpack_coords ws.keys.(cell)
    in
    match read slot el with
    | Some v ->
      ws.value.(cell) <- v;
      Bytes.unsafe_set ws.got cell '\001'
    | None -> ()
  done

let captured w slot packed =
  match w.slots.(slot) with
  | None -> None
  | Some ws ->
    let cell =
      match w.host.arrs.(slot) with
      | Box { lo; extents; strides; _ } -> (
        match offset ~lo ~extents ~strides (Machine.unpack_coords packed) with
        | off -> Some off
        | exception Invalid_argument _ -> None)
      | Table _ -> Hashtbl.find_opt ws.cells packed
    in
    Option.bind cell (fun c ->
        if Bytes.get ws.got c <> '\000' then Some ws.value.(c) else None)
