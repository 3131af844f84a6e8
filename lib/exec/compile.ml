open Cf_loop

type backend = [ `Compiled | `Interpreted ]

let backend_name = function
  | `Compiled -> "compiled"
  | `Interpreted -> "interpreted"

let backend_of_string = function
  | "compiled" -> Some `Compiled
  | "interpreted" -> Some `Interpreted
  | _ -> None

module Site = struct
  type t = {
    slot : int;
    aref : Aref.t;
    h : int array array;
    c : int array;
  }

  let make ~slot ~order aref =
    let h, c = Aref.matrix order aref in
    { slot; aref; h; c }

  let rank t = Array.length t.c

  let eval_into t iter el =
    let h = t.h and c = t.c in
    for p = 0 to Array.length c - 1 do
      let row = h.(p) in
      let acc = ref c.(p) in
      for q = 0 to Array.length row - 1 do
        acc := !acc + (row.(q) * iter.(q))
      done;
      el.(p) <- !acc
    done

  let eval t iter =
    let el = Array.make (Array.length t.c) 0 in
    eval_into t iter el;
    el
end

type stmt_sites = { stmt : Stmt.t; lhs : Site.t; reads : Site.t array }

type program = {
  arrays : string array;
  stmts : stmt_sites array;
  pos : (string, int) Hashtbl.t;
}

let make nest =
  let arrays = Array.of_list (Nest.arrays nest) in
  let slot_of name =
    let rec go i =
      if i >= Array.length arrays then
        invalid_arg ("Compile: unknown array " ^ name)
      else if String.equal arrays.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let order = Nest.indices nest in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) order;
  let site (r : Aref.t) = Site.make ~slot:(slot_of r.Aref.array) ~order r in
  let stmts =
    Array.of_list
      (List.map
         (fun (s : Stmt.t) ->
           {
             stmt = s;
             lhs = site s.Stmt.lhs;
             reads = Array.of_list (List.map site (Stmt.reads s));
           })
         nest.Nest.body)
  in
  { arrays; stmts; pos }

let arrays t = t.arrays

let slot_of t name =
  let rec go i =
    if i >= Array.length t.arrays then
      invalid_arg ("Compile: unknown array " ^ name)
    else if String.equal t.arrays.(i) name then i
    else go (i + 1)
  in
  go 0

let stmts t = t.stmts

let max_rank t =
  Array.fold_left
    (fun acc sp ->
      Array.fold_left
        (fun acc s -> max acc (Site.rank s))
        (max acc (Site.rank sp.lhs))
        sp.reads)
    0 t.stmts

let sites t = Array.map (fun sp -> Array.append [| sp.lhs |] sp.reads) t.stmts

let scratch sites =
  Array.map (Array.map (fun s -> Array.make (Site.rank s) 0)) sites

type flat = {
  f_lo : int array;
  f_extents : int array;
  f_data : int array;
  f_present : Bytes.t;
  f_dirty : Bytes.t;
}

type target = {
  reader : int -> int array -> int;
  reader1 : int -> int -> int;
  reader2 : int -> int -> int -> int;
  writer : int -> int array -> int -> unit;
  writer1 : int -> int -> int -> unit;
  writer2 : int -> int -> int -> int -> unit;
  flat : int -> flat option;
}

(* One subscript compiled to a closure over the iteration vector.  The
   nonzero structure is known at bind time, so the ubiquitous one-index
   shapes ([i], [i + c], [a·i + c], the rank-2 stencil offsets) become
   straight-line adds with no inner loop. *)
let addr (row : int array) c0 =
  let nz = ref [] in
  Array.iteri (fun q a -> if a <> 0 then nz := (q, a) :: !nz) row;
  match List.rev !nz with
  | [] -> fun _ -> c0
  | [ (q, 1) ] when c0 = 0 -> fun iter -> iter.(q)
  | [ (q, 1) ] -> fun iter -> c0 + iter.(q)
  | [ (q, a) ] -> fun iter -> c0 + (a * iter.(q))
  | [ (q1, a1); (q2, a2) ] ->
    fun iter -> c0 + (a1 * iter.(q1)) + (a2 * iter.(q2))
  | nz ->
    fun iter ->
      List.fold_left (fun acc (q, a) -> acc + (a * iter.(q))) c0 nz

(* The single-term shape [a·iter(q) + c] covers almost every subscript
   in practice; classifying it at bind time lets the rank-1/rank-2
   accessors below fold the address arithmetic straight into the
   read/write closure — no per-subscript closure call at all. *)
type addr1 = Shifted of int * int (* q, c:  c + iter.(q) *) | Complex

let addr_shape (row : int array) c0 =
  let nz = ref [] in
  Array.iteri (fun q a -> if a <> 0 then nz := (q, a) :: !nz) row;
  match !nz with [ (q, 1) ] -> Shifted (q, c0) | _ -> Complex

(* Rank-matched flat view of the site's chunk, if the target has one:
   the hit path then inlines the offset arithmetic and array access
   into the closure itself — zero calls — and only a miss falls back to
   the bound accessor (which recomputes and raises identically). *)
let flat_of target (site : Site.t) =
  match target.flat site.Site.slot with
  | Some f when Array.length f.f_lo = Site.rank site -> Some f
  | _ -> None

let compile_read target (site : Site.t) =
  match Site.rank site with
  | 1 -> (
    let g = target.reader1 site.Site.slot in
    match addr_shape site.Site.h.(0) site.Site.c.(0) with
    | Shifted (q, c) -> (
      match flat_of target site with
      | Some f ->
        let lo0 = f.f_lo.(0) and n0 = f.f_extents.(0) in
        let data = f.f_data and present = f.f_present in
        fun iter ->
          let x = c + iter.(q) in
          let i = x - lo0 in
          if i >= 0 && i < n0 && Bytes.unsafe_get present i <> '\000' then
            Array.unsafe_get data i
          else g x
      | None -> fun iter -> g (c + iter.(q)))
    | Complex ->
      let a0 = addr site.Site.h.(0) site.Site.c.(0) in
      fun iter -> g (a0 iter))
  | 2 -> (
    let g = target.reader2 site.Site.slot in
    match
      ( addr_shape site.Site.h.(0) site.Site.c.(0),
        addr_shape site.Site.h.(1) site.Site.c.(1) )
    with
    | Shifted (q0, c0), Shifted (q1, c1) -> (
      match flat_of target site with
      | Some f ->
        let lo0 = f.f_lo.(0) and n0 = f.f_extents.(0) in
        let lo1 = f.f_lo.(1) and n1 = f.f_extents.(1) in
        let data = f.f_data and present = f.f_present in
        fun iter ->
          let x0 = c0 + iter.(q0) and x1 = c1 + iter.(q1) in
          let i0 = x0 - lo0 and i1 = x1 - lo1 in
          if i0 >= 0 && i0 < n0 && i1 >= 0 && i1 < n1 then begin
            let off = (i0 * n1) + i1 in
            if Bytes.unsafe_get present off <> '\000' then
              Array.unsafe_get data off
            else g x0 x1
          end
          else g x0 x1
      | None -> fun iter -> g (c0 + iter.(q0)) (c1 + iter.(q1)))
    | _ ->
      let a0 = addr site.Site.h.(0) site.Site.c.(0) in
      let a1 = addr site.Site.h.(1) site.Site.c.(1) in
      fun iter -> g (a0 iter) (a1 iter))
  | n ->
    let g = target.reader site.Site.slot in
    let el = Array.make n 0 in
    fun iter ->
      Site.eval_into site iter el;
      g el

(* {2 Fused statement kernels}

   The generic path below compiles one closure per expression node, so
   a statement costs one indirect call per operator and per access.
   The shapes that dominate real kernels — [L := r], [L := r op s],
   [L := r op k], [L := r op1 (s op2 t)] — are worth one monolithic
   closure each: when every site is rank-1/rank-2 with unit-stride
   subscripts over a {!flat} view, the whole statement becomes
   straight-line loads and stores with zero calls on the hit path.
   Reads still evaluate left to right and misses still fall back to
   the bound accessor, so faulting behavior is unchanged. *)

type racc =
  | R1 of {
      data : int array;
      present : Bytes.t;
      lo0 : int;
      n0 : int;
      q0 : int;
      c0 : int;
      miss : int -> int;
    }
  | R2 of {
      data : int array;
      present : Bytes.t;
      lo0 : int;
      n0 : int;
      lo1 : int;
      n1 : int;
      q0 : int;
      c0 : int;
      q1 : int;
      c1 : int;
      miss : int -> int -> int;
    }

type wacc =
  | W1 of {
      data : int array;
      present : Bytes.t;
      dirty : Bytes.t;
      lo0 : int;
      n0 : int;
      q0 : int;
      c0 : int;
      miss : int -> int -> unit;
    }
  | W2 of {
      data : int array;
      present : Bytes.t;
      dirty : Bytes.t;
      lo0 : int;
      n0 : int;
      lo1 : int;
      n1 : int;
      q0 : int;
      c0 : int;
      q1 : int;
      c1 : int;
      miss : int -> int -> int -> unit;
    }

let racc_of target (site : Site.t) =
  match (Site.rank site, flat_of target site) with
  | 1, Some f -> (
    match addr_shape site.Site.h.(0) site.Site.c.(0) with
    | Shifted (q0, c0) ->
      Some
        (R1
           {
             data = f.f_data;
             present = f.f_present;
             lo0 = f.f_lo.(0);
             n0 = f.f_extents.(0);
             q0;
             c0;
             miss = target.reader1 site.Site.slot;
           })
    | Complex -> None)
  | 2, Some f -> (
    match
      ( addr_shape site.Site.h.(0) site.Site.c.(0),
        addr_shape site.Site.h.(1) site.Site.c.(1) )
    with
    | Shifted (q0, c0), Shifted (q1, c1) ->
      Some
        (R2
           {
             data = f.f_data;
             present = f.f_present;
             lo0 = f.f_lo.(0);
             n0 = f.f_extents.(0);
             lo1 = f.f_lo.(1);
             n1 = f.f_extents.(1);
             q0;
             c0;
             q1;
             c1;
             miss = target.reader2 site.Site.slot;
           })
    | _ -> None)
  | _ -> None

let wacc_of target (site : Site.t) =
  match (Site.rank site, flat_of target site) with
  | 1, Some f -> (
    match addr_shape site.Site.h.(0) site.Site.c.(0) with
    | Shifted (q0, c0) ->
      Some
        (W1
           {
             data = f.f_data;
             present = f.f_present;
             dirty = f.f_dirty;
             lo0 = f.f_lo.(0);
             n0 = f.f_extents.(0);
             q0;
             c0;
             miss = target.writer1 site.Site.slot;
           })
    | Complex -> None)
  | 2, Some f -> (
    match
      ( addr_shape site.Site.h.(0) site.Site.c.(0),
        addr_shape site.Site.h.(1) site.Site.c.(1) )
    with
    | Shifted (q0, c0), Shifted (q1, c1) ->
      Some
        (W2
           {
             data = f.f_data;
             present = f.f_present;
             dirty = f.f_dirty;
             lo0 = f.f_lo.(0);
             n0 = f.f_extents.(0);
             lo1 = f.f_lo.(1);
             n1 = f.f_extents.(1);
             q0;
             c0;
             q1;
             c1;
             miss = target.writer2 site.Site.slot;
           })
    | _ -> None)
  | _ -> None

let[@inline] rd r iter =
  match r with
  | R1 a ->
    let x = a.c0 + Array.unsafe_get iter a.q0 in
    let i = x - a.lo0 in
    if i >= 0 && i < a.n0 && Bytes.unsafe_get a.present i <> '\000' then
      Array.unsafe_get a.data i
    else a.miss x
  | R2 a ->
    let x0 = a.c0 + Array.unsafe_get iter a.q0 in
    let x1 = a.c1 + Array.unsafe_get iter a.q1 in
    let i0 = x0 - a.lo0 and i1 = x1 - a.lo1 in
    if i0 >= 0 && i0 < a.n0 && i1 >= 0 && i1 < a.n1 then begin
      let off = (i0 * a.n1) + i1 in
      if Bytes.unsafe_get a.present off <> '\000' then
        Array.unsafe_get a.data off
      else a.miss x0 x1
    end
    else a.miss x0 x1

let[@inline] wrt w iter v =
  match w with
  | W1 a ->
    let x = a.c0 + Array.unsafe_get iter a.q0 in
    let i = x - a.lo0 in
    if i >= 0 && i < a.n0 && Bytes.unsafe_get a.present i <> '\000' then begin
      Array.unsafe_set a.data i v;
      Bytes.unsafe_set a.dirty i '\001'
    end
    else a.miss x v
  | W2 a ->
    let x0 = a.c0 + Array.unsafe_get iter a.q0 in
    let x1 = a.c1 + Array.unsafe_get iter a.q1 in
    let i0 = x0 - a.lo0 and i1 = x1 - a.lo1 in
    if i0 >= 0 && i0 < a.n0 && i1 >= 0 && i1 < a.n1 then begin
      let off = (i0 * a.n1) + i1 in
      if Bytes.unsafe_get a.present off <> '\000' then begin
        Array.unsafe_set a.data off v;
        Bytes.unsafe_set a.dirty off '\001'
      end
      else a.miss x0 x1 v
    end
    else a.miss x0 x1 v

let[@inline] apply op a b =
  match op with
  | Expr.Add -> a + b
  | Expr.Sub -> a - b
  | Expr.Mul -> a * b
  | Expr.Div -> a / b

(* Fully-specialized kernel for the dominant dense shape
   [L2 := r2 op1 (s2 op2 t2)] — every capture is a flat scalar (no
   record chase) and the hit path runs without a single call.  The
   compiler here has no cross-function inliner, so this is spelled out
   by hand rather than composed from {!rd}/{!wrt}. *)
let fuse_c222 op1 op2 ~r0 ~r1 ~r2 ~w =
  match (r0, r1, r2, w) with
  | R2 a, R2 b, R2 c, W2 d ->
    let ad = a.data
    and ap = a.present
    and alo0 = a.lo0
    and an0 = a.n0
    and alo1 = a.lo1
    and an1 = a.n1
    and aq0 = a.q0
    and ac0 = a.c0
    and aq1 = a.q1
    and ac1 = a.c1
    and am = a.miss in
    let bd = b.data
    and bp = b.present
    and blo0 = b.lo0
    and bn0 = b.n0
    and blo1 = b.lo1
    and bn1 = b.n1
    and bq0 = b.q0
    and bc0 = b.c0
    and bq1 = b.q1
    and bc1 = b.c1
    and bm = b.miss in
    let cd = c.data
    and cp = c.present
    and clo0 = c.lo0
    and cn0 = c.n0
    and clo1 = c.lo1
    and cn1 = c.n1
    and cq0 = c.q0
    and cc0 = c.c0
    and cq1 = c.q1
    and cc1 = c.c1
    and cm = c.miss in
    let dd = d.data
    and dp = d.present
    and ddt = d.dirty
    and dlo0 = d.lo0
    and dn0 = d.n0
    and dlo1 = d.lo1
    and dn1 = d.n1
    and dq0 = d.q0
    and dc0 = d.c0
    and dq1 = d.q1
    and dc1 = d.c1
    and dm = d.miss in
    Some
      (fun iter ->
        let v0 =
          let x0 = ac0 + Array.unsafe_get iter aq0 in
          let x1 = ac1 + Array.unsafe_get iter aq1 in
          let i0 = x0 - alo0 and i1 = x1 - alo1 in
          if i0 >= 0 && i0 < an0 && i1 >= 0 && i1 < an1 then begin
            let off = (i0 * an1) + i1 in
            if Bytes.unsafe_get ap off <> '\000' then Array.unsafe_get ad off
            else am x0 x1
          end
          else am x0 x1
        in
        let v1 =
          let x0 = bc0 + Array.unsafe_get iter bq0 in
          let x1 = bc1 + Array.unsafe_get iter bq1 in
          let i0 = x0 - blo0 and i1 = x1 - blo1 in
          if i0 >= 0 && i0 < bn0 && i1 >= 0 && i1 < bn1 then begin
            let off = (i0 * bn1) + i1 in
            if Bytes.unsafe_get bp off <> '\000' then Array.unsafe_get bd off
            else bm x0 x1
          end
          else bm x0 x1
        in
        let v2 =
          let x0 = cc0 + Array.unsafe_get iter cq0 in
          let x1 = cc1 + Array.unsafe_get iter cq1 in
          let i0 = x0 - clo0 and i1 = x1 - clo1 in
          if i0 >= 0 && i0 < cn0 && i1 >= 0 && i1 < cn1 then begin
            let off = (i0 * cn1) + i1 in
            if Bytes.unsafe_get cp off <> '\000' then Array.unsafe_get cd off
            else cm x0 x1
          end
          else cm x0 x1
        in
        let vb =
          match op2 with
          | Expr.Add -> v1 + v2
          | Expr.Sub -> v1 - v2
          | Expr.Mul -> v1 * v2
          | Expr.Div -> v1 / v2
        in
        let v =
          match op1 with
          | Expr.Add -> v0 + vb
          | Expr.Sub -> v0 - vb
          | Expr.Mul -> v0 * vb
          | Expr.Div -> v0 / vb
        in
        let x0 = dc0 + Array.unsafe_get iter dq0 in
        let x1 = dc1 + Array.unsafe_get iter dq1 in
        let i0 = x0 - dlo0 and i1 = x1 - dlo1 in
        if i0 >= 0 && i0 < dn0 && i1 >= 0 && i1 < dn1 then begin
          let off = (i0 * dn1) + i1 in
          if Bytes.unsafe_get dp off <> '\000' then begin
            Array.unsafe_set dd off v;
            Bytes.unsafe_set ddt off '\001'
          end
          else dm x0 x1 v
        end
        else dm x0 x1 v)
  | _ -> None

(* Same treatment for [L op1 (s op2 t)] over rank-1 sites. *)
let fuse_c111 op1 op2 ~r0 ~r1 ~r2 ~w =
  match (r0, r1, r2, w) with
  | R1 a, R1 b, R1 c, W1 d ->
    let ad = a.data
    and ap = a.present
    and alo0 = a.lo0
    and an0 = a.n0
    and aq0 = a.q0
    and ac0 = a.c0
    and am = a.miss in
    let bd = b.data
    and bp = b.present
    and blo0 = b.lo0
    and bn0 = b.n0
    and bq0 = b.q0
    and bc0 = b.c0
    and bm = b.miss in
    let cd = c.data
    and cp = c.present
    and clo0 = c.lo0
    and cn0 = c.n0
    and cq0 = c.q0
    and cc0 = c.c0
    and cm = c.miss in
    let dd = d.data
    and dp = d.present
    and ddt = d.dirty
    and dlo0 = d.lo0
    and dn0 = d.n0
    and dq0 = d.q0
    and dc0 = d.c0
    and dm = d.miss in
    Some
      (fun iter ->
        let v0 =
          let x = ac0 + Array.unsafe_get iter aq0 in
          let i = x - alo0 in
          if i >= 0 && i < an0 && Bytes.unsafe_get ap i <> '\000' then
            Array.unsafe_get ad i
          else am x
        in
        let v1 =
          let x = bc0 + Array.unsafe_get iter bq0 in
          let i = x - blo0 in
          if i >= 0 && i < bn0 && Bytes.unsafe_get bp i <> '\000' then
            Array.unsafe_get bd i
          else bm x
        in
        let v2 =
          let x = cc0 + Array.unsafe_get iter cq0 in
          let i = x - clo0 in
          if i >= 0 && i < cn0 && Bytes.unsafe_get cp i <> '\000' then
            Array.unsafe_get cd i
          else cm x
        in
        let vb =
          match op2 with
          | Expr.Add -> v1 + v2
          | Expr.Sub -> v1 - v2
          | Expr.Mul -> v1 * v2
          | Expr.Div -> v1 / v2
        in
        let v =
          match op1 with
          | Expr.Add -> v0 + vb
          | Expr.Sub -> v0 - vb
          | Expr.Mul -> v0 * vb
          | Expr.Div -> v0 / vb
        in
        let x = dc0 + Array.unsafe_get iter dq0 in
        let i = x - dlo0 in
        if i >= 0 && i < dn0 && Bytes.unsafe_get dp i <> '\000' then begin
          Array.unsafe_set dd i v;
          Bytes.unsafe_set ddt i '\001'
        end
        else dm x v)
  | _ -> None

(* And for the two-read shape [L := r op s] over rank-2 sites. *)
let fuse_b22 op ~r0 ~r1 ~w =
  match (r0, r1, w) with
  | R2 a, R2 b, W2 d ->
    let ad = a.data
    and ap = a.present
    and alo0 = a.lo0
    and an0 = a.n0
    and alo1 = a.lo1
    and an1 = a.n1
    and aq0 = a.q0
    and ac0 = a.c0
    and aq1 = a.q1
    and ac1 = a.c1
    and am = a.miss in
    let bd = b.data
    and bp = b.present
    and blo0 = b.lo0
    and bn0 = b.n0
    and blo1 = b.lo1
    and bn1 = b.n1
    and bq0 = b.q0
    and bc0 = b.c0
    and bq1 = b.q1
    and bc1 = b.c1
    and bm = b.miss in
    let dd = d.data
    and dp = d.present
    and ddt = d.dirty
    and dlo0 = d.lo0
    and dn0 = d.n0
    and dlo1 = d.lo1
    and dn1 = d.n1
    and dq0 = d.q0
    and dc0 = d.c0
    and dq1 = d.q1
    and dc1 = d.c1
    and dm = d.miss in
    Some
      (fun iter ->
        let v0 =
          let x0 = ac0 + Array.unsafe_get iter aq0 in
          let x1 = ac1 + Array.unsafe_get iter aq1 in
          let i0 = x0 - alo0 and i1 = x1 - alo1 in
          if i0 >= 0 && i0 < an0 && i1 >= 0 && i1 < an1 then begin
            let off = (i0 * an1) + i1 in
            if Bytes.unsafe_get ap off <> '\000' then Array.unsafe_get ad off
            else am x0 x1
          end
          else am x0 x1
        in
        let v1 =
          let x0 = bc0 + Array.unsafe_get iter bq0 in
          let x1 = bc1 + Array.unsafe_get iter bq1 in
          let i0 = x0 - blo0 and i1 = x1 - blo1 in
          if i0 >= 0 && i0 < bn0 && i1 >= 0 && i1 < bn1 then begin
            let off = (i0 * bn1) + i1 in
            if Bytes.unsafe_get bp off <> '\000' then Array.unsafe_get bd off
            else bm x0 x1
          end
          else bm x0 x1
        in
        let v =
          match op with
          | Expr.Add -> v0 + v1
          | Expr.Sub -> v0 - v1
          | Expr.Mul -> v0 * v1
          | Expr.Div -> v0 / v1
        in
        let x0 = dc0 + Array.unsafe_get iter dq0 in
        let x1 = dc1 + Array.unsafe_get iter dq1 in
        let i0 = x0 - dlo0 and i1 = x1 - dlo1 in
        if i0 >= 0 && i0 < dn0 && i1 >= 0 && i1 < dn1 then begin
          let off = (i0 * dn1) + i1 in
          if Bytes.unsafe_get dp off <> '\000' then begin
            Array.unsafe_set dd off v;
            Bytes.unsafe_set ddt off '\001'
          end
          else dm x0 x1 v
        end
        else dm x0 x1 v)
  | _ -> None

(* One monolithic closure for the whole statement, or [None] when the
   rhs is not one of the fused shapes / a site does not qualify.  The
   homogeneous rank combinations take the hand-specialized kernels
   above; mixed ranks fall back to the generic {!rd}/{!wrt}
   composition, which still saves the per-node closure dispatch. *)
let try_fuse target (sp : stmt_sites) =
  let r i = racc_of target sp.reads.(i) in
  match wacc_of target sp.lhs with
  | None -> None
  | Some w -> (
    match sp.stmt.Stmt.rhs with
    | Expr.Read _ -> (
      match r 0 with
      | Some r0 -> Some (fun iter -> wrt w iter (rd r0 iter))
      | None -> None)
    | Expr.Binop (op, Expr.Read _, Expr.Const k) -> (
      match r 0 with
      | Some r0 -> Some (fun iter -> wrt w iter (apply op (rd r0 iter) k))
      | None -> None)
    | Expr.Binop (op, Expr.Read _, Expr.Read _) -> (
      match (r 0, r 1) with
      | Some r0, Some r1 -> (
        match fuse_b22 op ~r0 ~r1 ~w with
        | Some _ as fused -> fused
        | None ->
          Some
            (fun iter ->
              let v0 = rd r0 iter in
              let v1 = rd r1 iter in
              wrt w iter (apply op v0 v1)))
      | _ -> None)
    | Expr.Binop (op1, Expr.Read _, Expr.Binop (op2, Expr.Read _, Expr.Read _))
      -> (
      match (r 0, r 1, r 2) with
      | Some r0, Some r1, Some r2 -> (
        match fuse_c222 op1 op2 ~r0 ~r1 ~r2 ~w with
        | Some _ as fused -> fused
        | None -> (
          match fuse_c111 op1 op2 ~r0 ~r1 ~r2 ~w with
          | Some _ as fused -> fused
          | None ->
            Some
              (fun iter ->
                let v0 = rd r0 iter in
                let v1 = rd r1 iter in
                let v2 = rd r2 iter in
                wrt w iter (apply op1 v0 (apply op2 v1 v2)))))
      | _ -> None)
    | _ -> None)

(* Reads must resolve to their compiled sites positionally: [sp.reads]
   is built from [Stmt.reads] = [Expr.reads stmt.rhs], which lists the
   [Read] nodes in left-to-right traversal order — the same order this
   recursion visits them. *)
let compile_expr ~scalar ~target ~pos (sp : stmt_sites) =
  let next = ref 0 in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Const k -> fun _ -> k
    | Expr.Scalar s ->
      let v = scalar s in
      fun _ -> v
    | Expr.Index v -> (
      match Hashtbl.find_opt pos v with
      | Some k -> fun iter -> iter.(k)
      | None -> invalid_arg ("Compile: unbound index " ^ v))
    | Expr.Read _ ->
      let site = sp.reads.(!next) in
      incr next;
      compile_read target site
    | Expr.Binop (op, a, b) -> (
      let fa = go a in
      let fb = go b in
      (* Left before right, explicitly: the faulting access of a
         non-communication-free run must match the interpreter's. *)
      match op with
      | Expr.Add ->
        fun iter ->
          let va = fa iter in
          let vb = fb iter in
          va + vb
      | Expr.Sub ->
        fun iter ->
          let va = fa iter in
          let vb = fb iter in
          va - vb
      | Expr.Mul ->
        fun iter ->
          let va = fa iter in
          let vb = fb iter in
          va * vb
      | Expr.Div ->
        fun iter ->
          let va = fa iter in
          let vb = fb iter in
          va / vb)
  in
  go sp.stmt.Stmt.rhs

let compile_stmt ~scalar ~target ~pos ~on_write si (sp : stmt_sites) =
  match (on_write, try_fuse target sp) with
  | None, Some fused -> fused
  | _ ->
  let rhs = compile_expr ~scalar ~target ~pos sp in
  let lhs = sp.lhs in
  match on_write with
  | None -> (
    match Site.rank lhs with
    | 1 -> (
      let w = target.writer1 lhs.Site.slot in
      match addr_shape lhs.Site.h.(0) lhs.Site.c.(0) with
      | Shifted (q, c) -> (
        match flat_of target lhs with
        | Some f ->
          let lo0 = f.f_lo.(0) and n0 = f.f_extents.(0) in
          let data = f.f_data and present = f.f_present in
          let dirty = f.f_dirty in
          fun iter ->
            let v = rhs iter in
            let x = c + iter.(q) in
            let i = x - lo0 in
            if i >= 0 && i < n0 && Bytes.unsafe_get present i <> '\000' then begin
              Array.unsafe_set data i v;
              Bytes.unsafe_set dirty i '\001'
            end
            else w x v
        | None ->
          fun iter ->
            let v = rhs iter in
            w (c + iter.(q)) v)
      | Complex ->
        let a0 = addr lhs.Site.h.(0) lhs.Site.c.(0) in
        fun iter ->
          let v = rhs iter in
          w (a0 iter) v)
    | 2 -> (
      let w = target.writer2 lhs.Site.slot in
      match
        ( addr_shape lhs.Site.h.(0) lhs.Site.c.(0),
          addr_shape lhs.Site.h.(1) lhs.Site.c.(1) )
      with
      | Shifted (q0, c0), Shifted (q1, c1) -> (
        match flat_of target lhs with
        | Some f ->
          let lo0 = f.f_lo.(0) and n0 = f.f_extents.(0) in
          let lo1 = f.f_lo.(1) and n1 = f.f_extents.(1) in
          let data = f.f_data and present = f.f_present in
          let dirty = f.f_dirty in
          fun iter ->
            let v = rhs iter in
            let x0 = c0 + iter.(q0) and x1 = c1 + iter.(q1) in
            let i0 = x0 - lo0 and i1 = x1 - lo1 in
            if i0 >= 0 && i0 < n0 && i1 >= 0 && i1 < n1 then begin
              let off = (i0 * n1) + i1 in
              if Bytes.unsafe_get present off <> '\000' then begin
                Array.unsafe_set data off v;
                Bytes.unsafe_set dirty off '\001'
              end
              else w x0 x1 v
            end
            else w x0 x1 v
        | None ->
          fun iter ->
            let v = rhs iter in
            w (c0 + iter.(q0)) (c1 + iter.(q1)) v)
      | _ ->
        let a0 = addr lhs.Site.h.(0) lhs.Site.c.(0) in
        let a1 = addr lhs.Site.h.(1) lhs.Site.c.(1) in
        fun iter ->
          let v = rhs iter in
          w (a0 iter) (a1 iter) v)
    | n ->
      let w = target.writer lhs.Site.slot in
      let el = Array.make n 0 in
      fun iter ->
        let v = rhs iter in
        Site.eval_into lhs iter el;
        w el v)
  | Some hook ->
    (* Validation needs the materialized element, so every rank takes
       the general path here; [el] is scratch the hook must copy from. *)
    let w = target.writer lhs.Site.slot in
    let el = Array.make (Site.rank lhs) 0 in
    fun iter ->
      let v = rhs iter in
      Site.eval_into lhs iter el;
      w el v;
      hook ~stmt_index:si ~iter ~el v

let bind ?keep ?on_write ~scalar ~target t =
  let kernels =
    Array.mapi (compile_stmt ~scalar ~target ~pos:t.pos ~on_write) t.stmts
  in
  let n = Array.length kernels in
  match (keep, kernels) with
  | None, [| k |] -> k
  | None, _ ->
    fun iter ->
      for si = 0 to n - 1 do
        kernels.(si) iter
      done
  | Some keep, _ ->
    fun iter ->
      for si = 0 to n - 1 do
        if keep ~stmt_index:si iter then kernels.(si) iter
      done

(* {2 Run kernels}

   A run kernel executes [count] consecutive iterations in which one
   logical index advances by a fixed step — the unit the coset walker
   batches ({!Cf_core.Coset.iter_block_runs} upstream).  The generic
   form just loops the scalar kernel; the specialized form below
   marches flat offsets instead, with the box checks hoisted to the
   run's endpoints (each subscript is affine in the run position, so
   in-bounds at both ends means in-bounds throughout) and a
   replay-through-the-scalar-kernel bail-out for absent elements (hit
   loads are side-effect-free, so replaying the whole iteration
   preserves exact miss order and accounting). *)

let generic_run k x ~q ~step ~count =
  let x0 = x.(q) in
  for _ = 1 to count do
    k x;
    x.(q) <- x.(q) + step
  done;
  x.(q) <- x0

let run_fuse_c222 op1 op2 ~r0 ~r1 ~r2 ~w ~k =
  match (r0, r1, r2, w) with
  | R2 a, R2 b, R2 c, W2 d ->
    let ad = a.data
    and ap = a.present
    and alo0 = a.lo0
    and an0 = a.n0
    and alo1 = a.lo1
    and an1 = a.n1
    and aq0 = a.q0
    and ac0 = a.c0
    and aq1 = a.q1
    and ac1 = a.c1 in
    let bd = b.data
    and bp = b.present
    and blo0 = b.lo0
    and bn0 = b.n0
    and blo1 = b.lo1
    and bn1 = b.n1
    and bq0 = b.q0
    and bc0 = b.c0
    and bq1 = b.q1
    and bc1 = b.c1 in
    let cd = c.data
    and cp = c.present
    and clo0 = c.lo0
    and cn0 = c.n0
    and clo1 = c.lo1
    and cn1 = c.n1
    and cq0 = c.q0
    and cc0 = c.c0
    and cq1 = c.q1
    and cc1 = c.c1 in
    let dd = d.data
    and dp = d.present
    and ddt = d.dirty
    and dlo0 = d.lo0
    and dn0 = d.n0
    and dlo1 = d.lo1
    and dn1 = d.n1
    and dq0 = d.q0
    and dc0 = d.c0
    and dq1 = d.q1
    and dc1 = d.c1 in
    Some
      (fun x ~q ~step ~count ->
        let last = count - 1 in
        let ia0 = ac0 + x.(aq0) - alo0 and ia1 = ac1 + x.(aq1) - alo1 in
        let dai0 = if aq0 = q then step else 0
        and dai1 = if aq1 = q then step else 0 in
        let ib0 = bc0 + x.(bq0) - blo0 and ib1 = bc1 + x.(bq1) - blo1 in
        let dbi0 = if bq0 = q then step else 0
        and dbi1 = if bq1 = q then step else 0 in
        let ic0 = cc0 + x.(cq0) - clo0 and ic1 = cc1 + x.(cq1) - clo1 in
        let dci0 = if cq0 = q then step else 0
        and dci1 = if cq1 = q then step else 0 in
        let id0 = dc0 + x.(dq0) - dlo0 and id1 = dc1 + x.(dq1) - dlo1 in
        let ddi0 = if dq0 = q then step else 0
        and ddi1 = if dq1 = q then step else 0 in
        let inb i di n = i >= 0 && i < n && (let e = i + (di * last) in
                                             e >= 0 && e < n) in
        if
          inb ia0 dai0 an0 && inb ia1 dai1 an1 && inb ib0 dbi0 bn0
          && inb ib1 dbi1 bn1 && inb ic0 dci0 cn0 && inb ic1 dci1 cn1
          && inb id0 ddi0 dn0 && inb id1 ddi1 dn1
        then begin
          let da = (dai0 * an1) + dai1
          and db = (dbi0 * bn1) + dbi1
          and dc = (dci0 * cn1) + dci1
          and dd' = (ddi0 * dn1) + ddi1 in
          let xq = x.(q) in
          let rec loop t offa offb offc offd =
            if t <= last then begin
              if
                Bytes.unsafe_get ap offa <> '\000'
                && Bytes.unsafe_get bp offb <> '\000'
                && Bytes.unsafe_get cp offc <> '\000'
                && Bytes.unsafe_get dp offd <> '\000'
              then begin
                let v0 = Array.unsafe_get ad offa in
                let v1 = Array.unsafe_get bd offb in
                let v2 = Array.unsafe_get cd offc in
                let vb =
                  match op2 with
                  | Expr.Add -> v1 + v2
                  | Expr.Sub -> v1 - v2
                  | Expr.Mul -> v1 * v2
                  | Expr.Div -> v1 / v2
                in
                let v =
                  match op1 with
                  | Expr.Add -> v0 + vb
                  | Expr.Sub -> v0 - vb
                  | Expr.Mul -> v0 * vb
                  | Expr.Div -> v0 / vb
                in
                Array.unsafe_set dd offd v;
                Bytes.unsafe_set ddt offd '\001'
              end
              else begin
                (* Absent element: replay the iteration through the
                   scalar kernel so the miss fires in program order. *)
                x.(q) <- xq + (step * t);
                k x;
                x.(q) <- xq
              end;
              loop (t + 1) (offa + da) (offb + db) (offc + dc) (offd + dd')
            end
          in
          loop 0
            ((ia0 * an1) + ia1)
            ((ib0 * bn1) + ib1)
            ((ic0 * cn1) + ic1)
            ((id0 * dn1) + id1)
        end
        else generic_run k x ~q ~step ~count)
  | _ -> None

let bind_run ?keep ~scalar ~target t =
  (* A lone all-rank-2 [L := r op1 (s op2 t)] over flat views takes the
     fused kernel {!bind} would build and its run kernel, both from one
     set of accessors. *)
  let fused =
    match (keep, t.stmts) with
    | None, [| sp |] -> (
      match sp.stmt.Stmt.rhs with
      | Expr.Binop
          (op1, Expr.Read _, Expr.Binop (op2, Expr.Read _, Expr.Read _))
        when Site.rank sp.lhs = 2
             && Array.for_all (fun s -> Site.rank s = 2) sp.reads -> (
        match wacc_of target sp.lhs with
        | None -> None
        | Some w -> (
          let r i = racc_of target sp.reads.(i) in
          match (r 0, r 1, r 2) with
          | Some r0, Some r1, Some r2 -> (
            match fuse_c222 op1 op2 ~r0 ~r1 ~r2 ~w with
            | Some k ->
              Option.map
                (fun rk -> (k, rk))
                (run_fuse_c222 op1 op2 ~r0 ~r1 ~r2 ~w ~k)
            | None -> None)
          | _ -> None))
      | _ -> None)
    | _ -> None
  in
  match fused with
  | Some kernels -> kernels
  | None ->
    let k = bind ?keep ~scalar ~target t in
    (k, generic_run k)

(* The innermost level's interval is one run: its bounds mention only
   outer indices, so each compiled bound reads positions the walker has
   already fixed. *)
let iter_space_runs nest run =
  let levels = nest.Nest.levels in
  let n = Array.length levels in
  let order = Nest.indices nest in
  let bound (e : Affine.t) =
    let row, c = Affine.coeff_vector order e in
    addr row c
  in
  let lo = Array.map (fun (l : Nest.level) -> bound l.Nest.lower) levels in
  let hi = Array.map (fun (l : Nest.level) -> bound l.Nest.upper) levels in
  let iter = Array.make n 0 in
  let rec go k =
    let l = lo.(k) iter and h = hi.(k) iter in
    if k = n - 1 then begin
      if l <= h then begin
        iter.(k) <- l;
        run iter ~q:k ~step:1 ~count:(h - l + 1)
      end
    end
    else
      for x = l to h do
        iter.(k) <- x;
        go (k + 1)
      done
  in
  go 0

let iter_space nest f = iter_space_runs nest (generic_run f)
