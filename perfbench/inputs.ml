module Gen = Cf_check.Gen

type entry = { label : string; src : string }

let paper_loops =
  [ "l1"; "l2"; "l3"; "l4"; "l5"; "convolution"; "matmul4"; "recurrence";
    "unrolled_matmul" ]

let read_loop ~root name =
  let path = Filename.concat root (Printf.sprintf "examples/loops/%s.loop" name) in
  In_channel.with_open_bin path In_channel.input_all

let render nest = Cf_check.Corpus.render nest

(* Nest structures come from one fixed generator stream, so that every
   seed plans the same structures: a few depth-3 draws cost up to 200 ms
   each, and with structures drawn per seed the pass time of the plan
   corpus varied by 10% between seeds.  The workload seed renames every
   identifier and orders the corpus; it also draws the [serve] workload's
   fresh nests, thousands per run. *)
let structure_seed = 0x5eed

let rename rng nest =
  let tag = Random.State.bits rng in
  let fresh prefix =
    let names = Hashtbl.create 8 in
    fun old ->
      match Hashtbl.find_opt names old with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "%s%x_%d" prefix tag (Hashtbl.length names) in
        Hashtbl.add names old n;
        n
  in
  Cf_cache.Canon.rename ~index:(fresh "i") ~array:(fresh "M") ~scalar:(fresh "s")
    nest

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Depth cycles 1..3; within each depth, normalized and unnormalized
   draws alternate. *)
let gen_nest i =
  let p = Gen.default ~depth:(1 + (i mod 3)) in
  if i / 3 mod 2 = 0 then Gen.generate ~seed:structure_seed ~index:i p
  else Gen.generate_unnormalized ~seed:structure_seed ~index:i p

let plan_gen_count = 120

let plan_corpus ~root ~seed =
  let rng = Random.State.make [| seed; 0x91a2 |] in
  let entry label nest = { label; src = render (rename rng nest) } in
  let entries =
    List.init plan_gen_count (fun i ->
        entry (Printf.sprintf "gen/%d" i) (gen_nest i))
    @ List.map
        (fun name ->
          entry ("paper/" ^ name) (Cf_loop.Parse.nest (read_loop ~root name)))
        paper_loops
    @ List.map
        (fun (k : Cf_workloads.Workloads.kernel) ->
          entry ("kernel/" ^ k.name) (k.build ~size:12))
        Cf_workloads.Workloads.all
  in
  Array.to_list (shuffle rng (Array.of_list entries))

(* Normal-form generator draws (the server plans without normalizing)
   whose canonical form was not seen before. *)
let distinct_draws ~seen ~seed ~first n =
  let rec go index acc k =
    if k = n then (List.rev acc, index)
    else
      let p = Gen.default ~depth:(1 + (index mod 3)) in
      let nest = Gen.generate ~seed ~index p in
      let d = Cf_cache.Canon.digest nest in
      if Hashtbl.mem seen d then go (index + 1) acc k
      else begin
        Hashtbl.add seen d ();
        go (index + 1) (nest :: acc) (k + 1)
      end
  in
  go first [] 0

let hot_size = 64

let hot_set ~root =
  let seen = Hashtbl.create 64 in
  let paper =
    List.map
      (fun name ->
        let nest = Cf_loop.Parse.nest (read_loop ~root name) in
        Hashtbl.replace seen (Cf_cache.Canon.digest nest) ();
        nest)
      [ "l1"; "l2"; "l3"; "l4"; "l5" ]
  in
  let draws, _ =
    distinct_draws ~seen ~seed:structure_seed ~first:0
      (hot_size - List.length paper)
  in
  Array.of_list (paper @ draws)

type request = {
  hot : int option;
  serve : bool;
  strategy : Cf_core.Strategy.t;
  src : string;
}

let hot_permil = 800
let serve_permil = 250

let strategies = Array.of_list Cf_core.Strategy.all

let requests ~seed ~hot ~conns ~count =
  (* Fresh nests must miss the server's cache: they are distinct from
     the hot set and from every other fresh draw.  Requests are made
     round-robin over the connections, so a shorter stream is a prefix
     of a longer one. *)
  let seen = Hashtbl.create 4096 in
  Array.iter (fun n -> Hashtbl.replace seen (Cf_cache.Canon.digest n) ()) hot;
  let next_fresh = ref 0 in
  let rngs =
    Array.init conns (fun conn -> Random.State.make [| seed; 0x5e7e; conn |])
  in
  let request conn k =
    let rng = rngs.(conn) in
    let strategy = strategies.(k mod Array.length strategies) in
    let is_hot = Random.State.int rng 1000 < hot_permil in
    let serve = Random.State.int rng 1000 < serve_permil in
    if is_hot then
      let h = Random.State.int rng (Array.length hot) in
      { hot = Some h; serve; strategy; src = render (rename rng hot.(h)) }
    else begin
      let draws, after = distinct_draws ~seen ~seed ~first:!next_fresh 1 in
      next_fresh := after;
      { hot = None; serve; strategy; src = render (List.hd draws) }
    end
  in
  let streams = Array.init conns (fun _ -> Array.make count None) in
  for k = 0 to count - 1 do
    for conn = 0 to conns - 1 do
      streams.(conn).(k) <- Some (request conn k)
    done
  done;
  Array.map (Array.map Option.get) streams

let digest texts = Digest.to_hex (Digest.string (String.concat "\x00" texts))
