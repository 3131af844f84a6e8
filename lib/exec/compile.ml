open Cf_loop
module Machine = Cf_machine.Machine

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
    shift : int array;
  }

  (* [q] when subscript row [row] is [iter(q) + c], -1 otherwise. *)
  let unit_stride row =
    let q = ref (-1) in
    for j = 0 to Array.length row - 1 do
      if row.(j) <> 0 then q := if row.(j) = 1 && !q = -1 then j else -2
    done;
    max !q (-1)

  let make ~slot ~order aref =
    let h, c = Aref.matrix order aref in
    { slot; aref; h; c; shift = Array.map unit_stride h }

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

let slot_in arrays name =
  let rec go i =
    if i >= Array.length arrays then
      invalid_arg ("Compile: unknown array " ^ name)
    else if String.equal arrays.(i) name then i
    else go (i + 1)
  in
  go 0

let make nest =
  let arrays = Array.of_list (Nest.arrays nest) in
  let order = Nest.indices nest in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) order;
  let site (r : Aref.t) =
    Site.make ~slot:(slot_in arrays r.Aref.array) ~order r
  in
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
let slot_of t name = slot_in t.arrays name
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

type target = {
  read : int -> int array -> int;
  write : int -> int array -> int -> unit;
  flat : int -> Machine.flat option;
}

(* One subscript compiled to a closure over the iteration vector; the
   loop bounds of {!iter_space_runs} use it. *)
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

(* {2 Accessors}

   Each site gets one load (a read) or store (the lhs) per bind.  Over
   a flat view of the site's rank, a rank-1/rank-2 unit-stride site
   inlines the box check, presence byte (and dirty byte) into a closure
   over captured scalars, so its hit path makes no call; any other site
   over a flat view computes the offset from its element in scratch.
   Every miss — outside the box, absent element — and every site
   without a view goes through the target's [read]/[write] with the
   element in scratch, which fault exactly as the interpreter does.  A
   site with a view resolves that accessor only when it misses: on a
   communication-free run it never does, and the bind stays cheap. *)

let load ~read ~view (s : Site.t) =
  let slot = s.Site.slot in
  let el = Array.make (Site.rank s) 0 in
  match (view, s.Site.shift) with
  | Some (f : Machine.flat), [| q0 |] when q0 >= 0 ->
    let c0 = s.Site.c.(0) and lo0 = f.lo.(0) and n0 = f.extents.(0) in
    let data = f.data and present = f.present in
    fun iter ->
      let x0 = c0 + Array.unsafe_get iter q0 in
      let i = x0 - lo0 in
      if i >= 0 && i < n0 && Bytes.unsafe_get present i <> '\000' then
        Array.unsafe_get data i
      else begin
        el.(0) <- x0;
        read slot el
      end
  | Some f, [| q0; q1 |] when q0 >= 0 && q1 >= 0 ->
    let c0 = s.Site.c.(0) and lo0 = f.lo.(0) and n0 = f.extents.(0) in
    let c1 = s.Site.c.(1) and lo1 = f.lo.(1) and n1 = f.extents.(1) in
    let data = f.data and present = f.present in
    fun iter ->
      let x0 = c0 + Array.unsafe_get iter q0
      and x1 = c1 + Array.unsafe_get iter q1 in
      let i0 = x0 - lo0 and i1 = x1 - lo1 in
      let off = (i0 * n1) + i1 in
      if
        i0 >= 0 && i0 < n0 && i1 >= 0 && i1 < n1
        && Bytes.unsafe_get present off <> '\000'
      then Array.unsafe_get data off
      else begin
        el.(0) <- x0;
        el.(1) <- x1;
        read slot el
      end
  | Some f, _ ->
    let lo = f.lo and extents = f.extents in
    let data = f.data and present = f.present in
    fun iter ->
      Site.eval_into s iter el;
      let off = Machine.flat_offset lo extents el in
      if off >= 0 && Bytes.unsafe_get present off <> '\000' then
        Array.unsafe_get data off
      else read slot el
  | None, _ ->
    let g = read slot in
    fun iter ->
      Site.eval_into s iter el;
      g el

let store ~write ~view (s : Site.t) =
  let slot = s.Site.slot in
  let el = Array.make (Site.rank s) 0 in
  match (view, s.Site.shift) with
  | Some (f : Machine.flat), [| q0 |] when q0 >= 0 ->
    let c0 = s.Site.c.(0) and lo0 = f.lo.(0) and n0 = f.extents.(0) in
    let data = f.data and present = f.present and dirty = f.dirty in
    fun iter v ->
      let x0 = c0 + Array.unsafe_get iter q0 in
      let i = x0 - lo0 in
      if i >= 0 && i < n0 && Bytes.unsafe_get present i <> '\000' then begin
        Array.unsafe_set data i v;
        Bytes.unsafe_set dirty i '\001'
      end
      else begin
        el.(0) <- x0;
        write slot el v
      end
  | Some f, [| q0; q1 |] when q0 >= 0 && q1 >= 0 ->
    let c0 = s.Site.c.(0) and lo0 = f.lo.(0) and n0 = f.extents.(0) in
    let c1 = s.Site.c.(1) and lo1 = f.lo.(1) and n1 = f.extents.(1) in
    let data = f.data and present = f.present and dirty = f.dirty in
    fun iter v ->
      let x0 = c0 + Array.unsafe_get iter q0
      and x1 = c1 + Array.unsafe_get iter q1 in
      let i0 = x0 - lo0 and i1 = x1 - lo1 in
      let off = (i0 * n1) + i1 in
      if
        i0 >= 0 && i0 < n0 && i1 >= 0 && i1 < n1
        && Bytes.unsafe_get present off <> '\000'
      then begin
        Array.unsafe_set data off v;
        Bytes.unsafe_set dirty off '\001'
      end
      else begin
        el.(0) <- x0;
        el.(1) <- x1;
        write slot el v
      end
  | Some f, _ ->
    let lo = f.lo and extents = f.extents in
    let data = f.data and present = f.present and dirty = f.dirty in
    fun iter v ->
      Site.eval_into s iter el;
      let off = Machine.flat_offset lo extents el in
      if off >= 0 && Bytes.unsafe_get present off <> '\000' then begin
        Array.unsafe_set data off v;
        Bytes.unsafe_set dirty off '\001'
      end
      else write slot el v
  | None, _ ->
    let w = write slot in
    fun iter v ->
      Site.eval_into s iter el;
      w el v

(* Every slot's view, fetched once per bind; a site uses its slot's
   view only when the ranks agree (a mismatch faults through the
   accessor). *)
let views ~target t = Array.init (Array.length t.arrays) target.flat

let view_of views (s : Site.t) =
  match views.(s.Site.slot) with
  | Some (f : Machine.flat) as v when Array.length f.lo = Site.rank s -> v
  | _ -> None

(* {2 The scalar kernel}

   Reads must resolve to their compiled sites positionally: [sp.reads]
   is built from [Stmt.reads] = [Expr.reads stmt.rhs], which lists the
   [Read] nodes in left-to-right traversal order — the same order this
   recursion visits them. *)
let compile_expr ~scalar ~load ~pos (sp : stmt_sites) =
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
      load site
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

let kernel ?keep ?on_write ~scalar ~target ~views t =
  let load s = load ~read:target.read ~view:(view_of views s) s in
  let kernels =
    Array.mapi
      (fun si (sp : stmt_sites) ->
        let rhs = compile_expr ~scalar ~load ~pos:t.pos sp in
        let st = store ~write:target.write ~view:(view_of views sp.lhs) sp.lhs in
        match on_write with
        | None -> fun iter -> st iter (rhs iter)
        | Some hook ->
          let el = Array.make (Site.rank sp.lhs) 0 in
          fun iter ->
            let v = rhs iter in
            st iter v;
            Site.eval_into sp.lhs iter el;
            hook ~stmt_index:si ~iter ~el v)
      t.stmts
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

let bind ?keep ?on_write ~scalar ~target t =
  kernel ?keep ?on_write ~scalar ~target ~views:(views ~target t) t

(* {2 Run kernels}

   A run kernel executes [count] consecutive iterations in which one
   logical index advances by a fixed step — the unit the coset walker
   batches ({!Cf_core.Coset.iter_block_runs} upstream).  The generic
   form just loops the scalar kernel.  Matrix multiplication's
   [C := C + A·B] (the paper's L5) has its own: it marches flat
   offsets, with the box checks hoisted to the run's endpoints (each
   subscript is affine in the run position, so in-bounds at both ends
   means in-bounds throughout) and a replay-through-the-scalar-kernel
   bail-out for absent elements (hit loads are side-effect-free, so
   replaying the whole iteration preserves exact miss order and
   accounting). *)

let generic_run k x ~q ~step ~count =
  let x0 = x.(q) in
  for _ = 1 to count do
    k x;
    x.(q) <- x.(q) + step
  done;
  x.(q) <- x0

(* Site [s]'s position along axis [p] of view [f] at the run's first
   iteration, or -1 when the run leaves the box at either end. *)
let run_axis (s : Site.t) (f : Machine.flat) x ~q ~step ~last p =
  let qp = s.Site.shift.(p) and n = f.Machine.extents.(p) in
  let i = s.Site.c.(p) + x.(qp) - f.Machine.lo.(p) in
  let e = if qp = q then i + (step * last) else i in
  if i >= 0 && i < n && e >= 0 && e < n then i else -1

(* The offset one run step moves a rank-2 unit-stride site by. *)
let run_step (s : Site.t) (f : Machine.flat) ~q ~step =
  (if s.Site.shift.(0) = q then step * f.Machine.extents.(1) else 0)
  + if s.Site.shift.(1) = q then step else 0

let l5_run op1 op2 ~k (a, fa) (b, fb) (c, fc) (d, fd) =
  let ad = fa.Machine.data and ap = fa.Machine.present in
  let bd = fb.Machine.data and bp = fb.Machine.present in
  let cd = fc.Machine.data and cp = fc.Machine.present in
  let dd = fd.Machine.data and dp = fd.Machine.present in
  let ddt = fd.Machine.dirty in
  fun x ~q ~step ~count ->
    let last = count - 1 in
    let a0 = run_axis a fa x ~q ~step ~last 0
    and a1 = run_axis a fa x ~q ~step ~last 1
    and b0 = run_axis b fb x ~q ~step ~last 0
    and b1 = run_axis b fb x ~q ~step ~last 1
    and c0 = run_axis c fc x ~q ~step ~last 0
    and c1 = run_axis c fc x ~q ~step ~last 1
    and d0 = run_axis d fd x ~q ~step ~last 0
    and d1 = run_axis d fd x ~q ~step ~last 1 in
    if a0 < 0 || a1 < 0 || b0 < 0 || b1 < 0 || c0 < 0 || c1 < 0 || d0 < 0
       || d1 < 0
    then generic_run k x ~q ~step ~count
    else begin
      let da = run_step a fa ~q ~step and db = run_step b fb ~q ~step in
      let dc = run_step c fc ~q ~step and dd' = run_step d fd ~q ~step in
      let offa = ref ((a0 * fa.Machine.extents.(1)) + a1)
      and offb = ref ((b0 * fb.Machine.extents.(1)) + b1)
      and offc = ref ((c0 * fc.Machine.extents.(1)) + c1)
      and offd = ref ((d0 * fd.Machine.extents.(1)) + d1) in
      let xq = x.(q) in
      for t = 0 to last do
        let oa = !offa and ob = !offb and oc = !offc and od = !offd in
        if
          Bytes.unsafe_get ap oa <> '\000'
          && Bytes.unsafe_get bp ob <> '\000'
          && Bytes.unsafe_get cp oc <> '\000'
          && Bytes.unsafe_get dp od <> '\000'
        then begin
          let v0 = Array.unsafe_get ad oa in
          let v1 = Array.unsafe_get bd ob in
          let v2 = Array.unsafe_get cd oc in
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
          Array.unsafe_set dd od v;
          Bytes.unsafe_set ddt od '\001'
        end
        else begin
          (* Absent element: replay the iteration through the scalar
             kernel so the miss fires in program order. *)
          x.(q) <- xq + (step * t);
          k x;
          x.(q) <- xq
        end;
        offa := oa + da;
        offb := ob + db;
        offc := oc + dc;
        offd := od + dd'
      done
    end

let bind_run ?keep ~scalar ~target t =
  let views = views ~target t in
  let k = kernel ?keep ~scalar ~target ~views t in
  (* A lone [L := r op1 (s op2 t)] whose four sites are rank-2,
     unit-stride and over rank-2 flat views takes the L5 run kernel. *)
  let strip (s : Site.t) =
    match view_of views s with
    | Some f when Site.rank s = 2 && s.Site.shift.(0) >= 0
                  && s.Site.shift.(1) >= 0 ->
      Some (s, f)
    | _ -> None
  in
  match (keep, t.stmts) with
  | ( None,
      [|
        {
          stmt =
            {
              Stmt.rhs =
                Expr.Binop
                  (op1, Expr.Read _, Expr.Binop (op2, Expr.Read _, Expr.Read _));
              _;
            };
          lhs;
          reads;
        };
      |] ) -> (
    match (strip reads.(0), strip reads.(1), strip reads.(2), strip lhs) with
    | Some a, Some b, Some c, Some d -> (k, l5_run op1 op2 ~k a b c d)
    | _ -> (k, generic_run k))
  | _ -> (k, generic_run k)

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
