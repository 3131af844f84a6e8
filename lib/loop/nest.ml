type level = { var : string; lower : Affine.t; upper : Affine.t }

type bounds_decl = (int * int) array

type t = {
  levels : level array;
  body : Stmt.t list;
  declarations : (string * bounds_decl) list;
}

type access = Write | Read

type ref_site = {
  access : access;
  stmt_index : int;
  site_index : int;
  aref : Aref.t;
}

let depth t = Array.length t.levels
let indices t = Array.map (fun l -> l.var) t.levels

let all_refs body =
  List.concat_map (fun s -> s.Stmt.lhs :: Stmt.reads s) body

let make ?(declarations = []) levels body =
  let levels = Array.of_list levels in
  let n = Array.length levels in
  if n = 0 then invalid_arg "Nest.make: no loop levels";
  if body = [] then invalid_arg "Nest.make: empty body";
  let names = Array.map (fun l -> l.var) levels in
  Array.iteri
    (fun k v ->
      for k' = 0 to k - 1 do
        if String.equal names.(k') v then
          invalid_arg (Printf.sprintf "Nest.make: duplicate index %s" v)
      done)
    names;
  let outer k = Array.to_list (Array.sub names 0 k) in
  Array.iteri
    (fun k l ->
      let allowed = outer k in
      let check e =
        List.iter
          (fun v ->
            if not (List.mem v allowed) then
              invalid_arg
                (Printf.sprintf
                   "Nest.make: bound of %s mentions non-outer index %s" l.var
                   v))
          (Affine.vars e)
      in
      check l.lower;
      check l.upper)
    levels;
  let t = { levels; body; declarations } in
  (* Force subscript linearity in the nest indices now, so later phases
     can assume [Aref.matrix] succeeds. *)
  let order = indices t in
  List.iter (fun r -> ignore (Aref.matrix order r)) (all_refs body);
  List.iter
    (fun (a, decl) ->
      Array.iter
        (fun (lo, hi) ->
          if lo > hi then
            invalid_arg
              (Printf.sprintf "Nest.make: empty declared range for %s" a))
        decl;
      List.iter
        (fun (r : Aref.t) ->
          if String.equal r.Aref.array a && Aref.dim r <> Array.length decl
          then
            invalid_arg
              (Printf.sprintf
                 "Nest.make: declaration of %s has arity %d but it is referenced with %d subscript(s)"
                 a (Array.length decl) (Aref.dim r)))
        (all_refs body))
    declarations;
  t

let rectangular ?declarations specs body =
  make ?declarations
    (List.map
       (fun (v, lo, hi) ->
         { var = v; lower = Affine.const lo; upper = Affine.const hi })
       specs)
    body

let declared_bounds t a = List.assoc_opt a t.declarations

let iter_space t f =
  let n = depth t in
  let current = Array.make n 0 in
  let env_upto k v =
    let rec find j =
      if j >= k then raise Not_found
      else if String.equal t.levels.(j).var v then current.(j)
      else find (j + 1)
    in
    find 0
  in
  let rec go k =
    if k = n then f (Array.copy current)
    else begin
      let env v = env_upto k v in
      let lo = Affine.eval env t.levels.(k).lower
      and hi = Affine.eval env t.levels.(k).upper in
      for x = lo to hi do
        current.(k) <- x;
        go (k + 1)
      done
    end
  in
  go 0

let mem t iter =
  let n = depth t in
  Array.length iter = n
  &&
  let env_upto k v =
    let rec find j =
      if j >= k then raise Not_found
      else if String.equal t.levels.(j).var v then iter.(j)
      else find (j + 1)
    in
    find 0
  in
  let rec go k =
    k = n
    || (let env v = env_upto k v in
        let lo = Affine.eval env t.levels.(k).lower
        and hi = Affine.eval env t.levels.(k).upper in
        iter.(k) >= lo && iter.(k) <= hi)
       && go (k + 1)
  in
  go 0

let iterations t =
  let acc = ref [] in
  iter_space t (fun i -> acc := i :: !acc);
  List.rev !acc

let is_rectangular t =
  Array.for_all
    (fun l -> Affine.is_constant l.lower && Affine.is_constant l.upper)
    t.levels

(* A rectangular space is the product of its levels' extents (0 when any
   level is empty, saturating at [max_int]); other spaces are counted by
   enumeration. *)
let cardinal t =
  if is_rectangular t then begin
    let extent l =
      let lo = Affine.constant_part l.lower and hi = Affine.constant_part l.upper in
      if hi < lo then 0
      else
        let d = hi - lo in
        if d < 0 || d = max_int then max_int else d + 1
    in
    let extents = Array.map extent t.levels in
    if Array.exists (fun e -> e = 0) extents then 0
    else
      Array.fold_left
        (fun acc e -> if e > max_int / acc then max_int else acc * e)
        1 extents
  end
  else begin
    let c = ref 0 in
    iter_space t (fun _ -> incr c);
    !c
  end

let extent_halfwidths t =
  if is_rectangular t then
    Array.map
      (fun l ->
        let lo = Affine.constant_part l.lower
        and hi = Affine.constant_part l.upper in
        if hi >= lo then hi - lo else 0)
      t.levels
  else begin
    (* Conservative: the spread of each coordinate over the enumerated
       space (nests reaching this path are small analysis inputs). *)
    let n = depth t in
    let lo = Array.make n max_int and hi = Array.make n min_int in
    iter_space t (fun i ->
        for k = 0 to n - 1 do
          if i.(k) < lo.(k) then lo.(k) <- i.(k);
          if i.(k) > hi.(k) then hi.(k) <- i.(k)
        done);
    Array.init n (fun k -> if hi.(k) >= lo.(k) then hi.(k) - lo.(k) else 0)
  end

let bounding_box t =
  let n = depth t in
  if is_rectangular t then begin
    let lo = Array.make n 0 and hi = Array.make n 0 in
    for k = 0 to n - 1 do
      lo.(k) <- Affine.constant_part t.levels.(k).lower;
      hi.(k) <- Affine.constant_part t.levels.(k).upper
    done;
    if Array.exists2 (fun l h -> l > h) lo hi then None else Some (lo, hi)
  end
  else begin
    let lo = Array.make n max_int and hi = Array.make n min_int in
    let any = ref false in
    iter_space t (fun i ->
        any := true;
        for k = 0 to n - 1 do
          if i.(k) < lo.(k) then lo.(k) <- i.(k);
          if i.(k) > hi.(k) then hi.(k) <- i.(k)
        done);
    if !any then Some (lo, hi) else None
  end

let arrays t =
  List.sort_uniq String.compare
    (List.map (fun r -> r.Aref.array) (all_refs t.body))

let out_of_bounds_accesses t =
  match t.declarations with
  | [] -> []
  | _ ->
    let order = indices t in
    let offenders = Hashtbl.create 16 in
    let sites =
      List.filter_map
        (fun (r : Aref.t) ->
          match declared_bounds t r.Aref.array with
          | Some decl -> Some (r.Aref.array, Aref.matrix order r, decl)
          | None -> None)
        (all_refs t.body)
    in
    iter_space t (fun iter ->
        List.iter
          (fun (a, (h, c), decl) ->
            let el =
              Array.mapi
                (fun p row ->
                  let acc = ref c.(p) in
                  Array.iteri (fun q x -> acc := !acc + (x * iter.(q))) row;
                  !acc)
                h
            in
            let inside =
              Array.for_all2 (fun x (lo, hi) -> x >= lo && x <= hi) el decl
            in
            if not inside then
              Hashtbl.replace offenders (a, Array.to_list el) ())
          sites);
    Hashtbl.fold
      (fun (a, el) () acc -> (a, Array.of_list el) :: acc)
      offenders []
    |> List.sort compare

let sites_of_array t name =
  List.concat
    (List.mapi
       (fun si (s : Stmt.t) ->
         let write =
           if String.equal s.lhs.Aref.array name then
             [ { access = Write; stmt_index = si; site_index = 0; aref = s.lhs } ]
           else []
         in
         (* site_index counts all reads of the statement (textual
            order), so numbering is stable across per-array views. *)
         let reads =
           List.mapi
             (fun k r ->
               {
                 access = Read;
                 stmt_index = si;
                 site_index = k + 1;
                 aref = r;
               })
             (Stmt.reads s)
           |> List.filter (fun site ->
                  String.equal site.aref.Aref.array name)
         in
         write @ reads)
       t.body)

let distinct_refs t name =
  let order = indices t in
  let sites = sites_of_array t name in
  List.fold_left
    (fun acc site ->
      let hc = Aref.matrix order site.aref in
      if List.mem hc acc then acc else acc @ [ hc ])
    [] sites

let uniformly_generated t name =
  let order = indices t in
  match sites_of_array t name with
  | [] -> true
  | first :: rest ->
    let h0, _ = Aref.matrix order first.aref in
    List.for_all (fun s -> fst (Aref.matrix order s.aref) = h0) rest

let all_uniformly_generated t =
  List.for_all (uniformly_generated t) (arrays t)

let h_matrix t name =
  if not (uniformly_generated t name) then
    invalid_arg
      (Printf.sprintf "Nest.h_matrix: %s is not uniformly generated" name);
  match sites_of_array t name with
  | [] -> invalid_arg (Printf.sprintf "Nest.h_matrix: no references to %s" name)
  | s :: _ -> fst (Aref.matrix (indices t) s.aref)

let pp ppf t =
  let n = depth t in
  let pad k = String.make (2 * k) ' ' in
  List.iter
    (fun (a, decl) ->
      Format.fprintf ppf "array %s[%s];@," a
        (String.concat ", "
           (Array.to_list
              (Array.map (fun (lo, hi) -> Printf.sprintf "%d:%d" lo hi) decl))))
    t.declarations;
  for k = 0 to n - 1 do
    Format.fprintf ppf "%sfor %s = %a to %a@," (pad k) t.levels.(k).var
      Affine.pp t.levels.(k).lower Affine.pp t.levels.(k).upper
  done;
  List.iter
    (fun s -> Format.fprintf ppf "%s%a@," (pad n) Stmt.pp s)
    t.body;
  for k = n - 1 downto 0 do
    Format.fprintf ppf "%send@," (pad k)
  done
