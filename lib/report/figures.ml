open Cf_loop
open Cf_core

let touched_elements nest name =
  let order = Nest.indices nest in
  let hcs =
    List.map
      (fun (s : Nest.ref_site) -> Aref.matrix order s.aref)
      (Nest.sites_of_array nest name)
  in
  let seen = Hashtbl.create 128 in
  Nest.iter_space nest (fun iter ->
      List.iter
        (fun (h, c) ->
          let el =
            Array.mapi
              (fun p row ->
                let acc = ref c.(p) in
                Array.iteri (fun k a -> acc := !acc + (a * iter.(k))) row;
                !acc)
              h
          in
          Hashtbl.replace seen (Array.to_list el) ())
        hcs);
  Hashtbl.fold (fun el () acc -> Array.of_list el :: acc) seen []
  |> List.sort compare

(* Render labelled 2-D points as a grid; rows = coordinate 0 downward,
   columns = coordinate 1 rightward. *)
let grid_2d points =
  match points with
  | [] -> "(empty)\n"
  | (p0, _) :: _ when Array.length p0 <> 2 -> "(not 2-D)\n"
  | _ ->
    let r0 = List.fold_left (fun a (p, _) -> min a p.(0)) max_int points in
    let r1 = List.fold_left (fun a (p, _) -> max a p.(0)) min_int points in
    let c0 = List.fold_left (fun a (p, _) -> min a p.(1)) max_int points in
    let c1 = List.fold_left (fun a (p, _) -> max a p.(1)) min_int points in
    let width =
      List.fold_left (fun a (_, l) -> max a (String.length l)) 2 points
    in
    let tbl = Hashtbl.create (List.length points) in
    List.iter (fun (p, l) -> Hashtbl.replace tbl (p.(0), p.(1)) l) points;
    let buf = Buffer.create 256 in
    let pad s = Printf.sprintf "%*s" width s in
    Buffer.add_string buf (pad " " ^ " |");
    for c = c0 to c1 do
      Buffer.add_string buf (" " ^ pad (string_of_int c))
    done;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (width + 2) '-');
    for _ = c0 to c1 do
      Buffer.add_string buf (String.make (width + 1) '-')
    done;
    Buffer.add_char buf '\n';
    for r = r0 to r1 do
      Buffer.add_string buf (pad (string_of_int r) ^ " |");
      for c = c0 to c1 do
        let l =
          match Hashtbl.find_opt tbl (r, c) with
          | Some l -> l
          | None -> String.make (min width 2) '.'
        in
        Buffer.add_string buf (" " ^ pad l)
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf

let data_space nest name =
  let els = touched_elements nest name in
  (* With a declaration, pad the grid to the declared box (the paper's
     figures show unused in-bounds elements as empty points). *)
  let padding =
    match Nest.declared_bounds nest name with
    | Some [| (r0, r1); (c0, c1) |] ->
      [ ([| r0; c0 |], ".."); ([| r1; c1 |], "..") ]
    | _ -> []
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "data space of %s (## = referenced by the loop):\n" name);
  (* Padding first: a later binding for the same cell wins in the grid,
     so real "##" labels must come after the box corners. *)
  Buffer.add_string buf
    (grid_2d (padding @ List.map (fun el -> (el, "##")) els));
  let drvs = Cf_dep.Analysis.data_referenced_vectors nest name in
  if drvs <> [] then begin
    Buffer.add_string buf "data-referenced vectors:";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Format.asprintf " %a" Cf_linalg.Vec.pp_int r))
      drvs;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let data_partition nest partition name =
  let dp = Data_partition.make nest partition name in
  let labelled =
    List.map
      (fun el ->
        match Data_partition.owner dp el with
        | [ j ] -> (el, string_of_int j)
        | _ :: _ -> (el, "**")
        | [] -> (el, "?"))
      (Data_partition.elements dp)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "data partition of %s (cell = owning block B^%s_j):\n" name
       name);
  Buffer.add_string buf (grid_2d labelled);
  let dup = Data_partition.duplicated dp in
  if dup <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%d element(s) replicated (**); copy counts:\n"
         (List.length dup));
    let shown = ref 0 in
    List.iter
      (fun (el, n) ->
        if !shown < 16 then begin
          Buffer.add_string buf
            (Format.asprintf "  %s%a: %d copies (blocks %s)\n" name
               Cf_linalg.Vec.pp_int el n
               (String.concat ","
                  (List.map string_of_int (Data_partition.owner dp el))));
          incr shown
        end)
      dup;
    if List.length dup > 16 then
      Buffer.add_string buf
        (Printf.sprintf "  ... and %d more\n" (List.length dup - 16))
  end;
  Buffer.contents buf

let iteration_partition partition =
  let nest = Iter_partition.nest partition in
  let n = Nest.depth nest in
  if n = 2 then begin
    let points =
      Array.to_list (Iter_partition.blocks partition)
      |> List.concat_map (fun (b : Iter_partition.block) ->
             List.map (fun it -> (it, string_of_int b.id)) b.iterations)
    in
    Printf.sprintf "iteration partition (cell = block B_j):\n%s"
      (grid_2d points)
  end
  else Format.asprintf "%a" Iter_partition.pp partition

let reference_graph nest name =
  Format.asprintf "%a" Cf_dep.Graph.pp (Cf_dep.Graph.build nest name)

let assignment_grid pl ~grid =
  let sizes = Cf_transform.Parloop.block_sizes pl in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "block workload (cell = iterations in block at forall coords):\n";
  (match sizes with
   | ((b, _) :: _) when Array.length b = 2 ->
     Buffer.add_string buf
       (grid_2d (List.map (fun (b, n) -> (b, string_of_int n)) sizes))
   | _ ->
     List.iter
       (fun (b, n) ->
         Buffer.add_string buf
           (Format.asprintf "  block %a: %d iterations\n" Cf_linalg.Vec.pp_int
              b n))
       sizes);
  if Array.length grid > 0 then begin
    let counts = Cf_exec.Assign.parloop_counts pl ~grid in
    Buffer.add_string buf
      (Printf.sprintf "cyclic assignment on a %s grid:\n"
         (String.concat "x"
            (Array.to_list (Array.map string_of_int grid))));
    Array.iteri
      (fun rank c ->
        Buffer.add_string buf (Printf.sprintf "  PE%d: %d iterations\n" rank c))
      counts;
    let b = Cf_exec.Balance.of_counts counts in
    Buffer.add_string buf
      (Format.asprintf "  balance: %a\n" Cf_exec.Balance.pp b)
  end;
  Buffer.contents buf
