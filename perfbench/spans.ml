type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  lane : int;
  start : float;
  stop : float;
  words : float;
}

type t = {
  on : bool;
  lane : int;
  mutable current_op : int;
  mutable stack : int list;
  mutable done_ : span list;
}

(* Span ids are unique across the recorders of all threads. *)
let next_id = Atomic.make 0

let create ?(lane = 0) ~enabled () =
  { on = enabled; lane; current_op = -1; stack = []; done_ = [] }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span t name f =
  if not t.on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match t.stack with [] -> -1 | p :: _ -> p in
    t.stack <- id :: t.stack;
    let w0 = allocated () in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let words = allocated () -. w0 in
        t.stack <- List.tl t.stack;
        t.done_ <-
          { id; name; op = t.current_op; parent; lane = t.lane; start; stop;
            words }
          :: t.done_)
      f
  end

let op t id f =
  if not t.on then f ()
  else
  let saved = t.current_op in
  t.current_op <- id;
  Fun.protect ~finally:(fun () -> t.current_op <- saved) (fun () -> span t "op" f)

let spans t = List.rev t.done_

type layer = { self_s : float; calls : int; self_words : float }

let aggregate spans =
  let child_time = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_time s.parent (s.stop -. s.start);
        add child_words s.parent s.words
      end)
    spans;
  let layers = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let self_s = s.stop -. s.start -. get child_time in
      let self_words = s.words -. get child_words in
      let prev =
        Option.value (Hashtbl.find_opt layers s.name)
          ~default:{ self_s = 0.; calls = 0; self_words = 0. }
      in
      Hashtbl.replace layers s.name
        {
          self_s = prev.self_s +. self_s;
          calls = prev.calls + 1;
          self_words = prev.self_words +. self_words;
        })
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq layers))

let find layers name =
  Option.value (List.assoc_opt name layers)
    ~default:{ self_s = 0.; calls = 0; self_words = 0. }

let write_chrome path spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let events =
    List.map
      (fun s ->
        {
          Cf_obs.Trace.name = s.name;
          cat = "layer";
          lane = s.lane;
          ts = s.start -. t0;
          dur = Some (s.stop -. s.start);
          args =
            [
              ("op", Cf_obs.Trace.Int s.op);
              ("span", Cf_obs.Trace.Int s.id);
              ("parent", Cf_obs.Trace.Int s.parent);
            ];
        })
      spans
  in
  let doc = Cf_obs.Trace.to_chrome ~process_name:"perfbench" events in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc);
  Cf_obs.Trace.validate_chrome doc
