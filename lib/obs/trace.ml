type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = {
  name : string;
  cat : string;
  lane : int;
  ts : float;
  dur : float option;
  args : (string * arg) list;
}

(* A ring keeps the newest [capacity] events.  [next] counts total
   emissions, so [next - capacity] (when positive) is the drop count and
   [next mod capacity] the slot the next event lands in. *)
type ring_buf = {
  lock : Mutex.t;
  buf : event option array;
  mutable next : int;
}

type sink =
  | Null
  | Ring of ring_buf

let null_sink = Null

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  Ring { lock = Mutex.create (); buf = Array.make capacity None; next = 0 }

type t = { sink : sink; clock : unit -> float; enabled : bool }

let zero_clock () = 0.
let null = { sink = Null; clock = zero_clock; enabled = false }

let make ?(clock = zero_clock) sink =
  { sink; clock; enabled = (match sink with Null -> false | Ring _ -> true) }

let enabled t = t.enabled
let now t = t.clock ()
let host_lane = -1
let planner_lane = -2

let emit t ev =
  if t.enabled then
    match t.sink with
    | Null -> ()
    | Ring r ->
      Mutex.lock r.lock;
      r.buf.(r.next mod Array.length r.buf) <- Some ev;
      r.next <- r.next + 1;
      Mutex.unlock r.lock

let instant t ?(lane = planner_lane) ?(cat = "event") ?(args = []) name =
  if t.enabled then
    emit t { name; cat; lane; ts = t.clock (); dur = None; args }

let mark t ~lane ?(cat = "event") ?(args = []) ~ts name =
  if t.enabled then emit t { name; cat; lane; ts; dur = None; args }

let complete t ~lane ?(cat = "span") ?(args = []) ~ts ~dur name =
  if t.enabled then emit t { name; cat; lane; ts; dur = Some dur; args }

let span t ?(lane = planner_lane) ?(cat = "span") ?(args = []) name f =
  if not t.enabled then f ()
  else begin
    let t0 = t.clock () in
    let finish () =
      emit t { name; cat; lane; ts = t0; dur = Some (t.clock () -. t0); args }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let events t =
  match t.sink with
  | Null -> []
  | Ring r ->
    Mutex.lock r.lock;
    let cap = Array.length r.buf in
    let n = min r.next cap in
    let first = r.next - n in
    let out =
      List.init n (fun i ->
          match r.buf.((first + i) mod cap) with
          | Some ev -> ev
          | None -> assert false)
    in
    Mutex.unlock r.lock;
    out

let dropped t =
  match t.sink with
  | Null -> 0
  | Ring r ->
    Mutex.lock r.lock;
    let d = max 0 (r.next - Array.length r.buf) in
    Mutex.unlock r.lock;
    d

(* --- export --- *)

let json_of_arg = function
  | Int n -> Json.Num (float_of_int n)
  | Float x -> Json.Num x
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let lane_name = function
  | -1 -> "host"
  | -2 -> "planner"
  | p -> Printf.sprintf "PE %d" p

(* Chrome sorts threads by tid; shifting by 2 keeps tids nonnegative and
   orders planner, host, PE 0, PE 1, ... top to bottom. *)
let tid_of_lane lane = lane + 2

let usec s = s *. 1e6

let chrome_event ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int (tid_of_lane ev.lane)));
      ("ts", Json.Num (usec ev.ts));
    ]
  in
  let phase =
    match ev.dur with
    | Some d -> [ ("ph", Json.Str "X"); ("dur", Json.Num (usec d)) ]
    | None -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  let args =
    match ev.args with
    | [] -> []
    | l -> [ ("args", Json.Obj (List.map (fun (k, a) -> (k, json_of_arg a)) l)) ]
  in
  Json.Obj (base @ phase @ args)

let thread_meta lane =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int (tid_of_lane lane)));
      ("ts", Json.Num 0.);
      ("args", Json.Obj [ ("name", Json.Str (lane_name lane)) ]);
    ]

(* The one export order.  Emission order can place an enclosing span
   after the events it covers (its duration is only known at the end),
   and PEs emit from several domains, so equal timestamps would keep
   wall-clock emission order.  Export sorted by start time, ties broken
   longest-first so parents precede their children, then by lane: this
   nests correctly in the viewer, keeps every lane's timestamps monotone
   for {!validate_chrome}, and makes the export deterministic wherever
   the timestamps are (simulated lanes). *)
let export_order evs =
  List.stable_sort
    (fun a b ->
      match compare a.ts b.ts with
      | 0 -> (
        match
          compare
            (Option.value ~default:0. b.dur)
            (Option.value ~default:0. a.dur)
        with
        | 0 -> compare a.lane b.lane
        | c -> c)
      | c -> c)
    evs

let to_chrome ?(process_name = "cfalloc") evs =
  let evs = export_order evs in
  let lanes =
    List.sort_uniq compare (List.map (fun ev -> ev.lane) evs)
  in
  let proc_meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("ts", Json.Num 0.);
        ("args", Json.Obj [ ("name", Json.Str process_name) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             ((proc_meta :: List.map thread_meta lanes)
             @ List.map chrome_event evs) );
         ("displayTimeUnit", Json.Str "ms");
       ])

let to_jsonl evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      let fields =
        [
          ("name", Json.Str ev.name);
          ("cat", Json.Str ev.cat);
          ("lane", Json.Num (float_of_int ev.lane));
          ("ts", Json.Num ev.ts);
        ]
        @ (match ev.dur with
          | Some d -> [ ("dur", Json.Num d) ]
          | None -> [])
        @
        match ev.args with
        | [] -> []
        | l ->
          [ ("args", Json.Obj (List.map (fun (k, a) -> (k, json_of_arg a)) l)) ]
      in
      Buffer.add_string b (Json.to_string (Json.Obj fields));
      Buffer.add_char b '\n')
    (export_order evs);
  Buffer.contents b

(* --- checker --- *)

let validate_chrome s =
  let ( let* ) = Result.bind in
  let* doc = Json.parse s in
  let* evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> Ok l
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents array"
  in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let depth : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let counted = ref 0 in
  let check i ev =
    let field name =
      match Json.member name ev with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: missing %s" i name)
    in
    let* ph =
      match field "ph" with
      | Ok (Json.Str p) -> Ok p
      | Ok _ -> Error (Printf.sprintf "event %d: ph is not a string" i)
      | Error e -> Error e
    in
    let* _ = field "name" in
    let* _ = field "pid" in
    if ph = "M" then Ok ()
    else begin
      let* tid =
        match field "tid" with
        | Ok (Json.Num n) -> Ok (int_of_float n)
        | Ok _ -> Error (Printf.sprintf "event %d: tid is not a number" i)
        | Error e -> Error e
      in
      let* ts =
        match field "ts" with
        | Ok (Json.Num n) -> Ok n
        | Ok _ -> Error (Printf.sprintf "event %d: ts is not a number" i)
        | Error e -> Error e
      in
      let* () =
        match Hashtbl.find_opt last_ts tid with
        | Some prev when ts < prev ->
          Error
            (Printf.sprintf
               "event %d: ts %g goes backwards on tid %d (previous %g)" i ts
               tid prev)
        | _ ->
          Hashtbl.replace last_ts tid ts;
          Ok ()
      in
      let* () =
        match ph with
        | "B" ->
          Hashtbl.replace depth tid
            (1 + Option.value ~default:0 (Hashtbl.find_opt depth tid));
          Ok ()
        | "E" ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          if d <= 0 then
            Error (Printf.sprintf "event %d: E without matching B on tid %d" i tid)
          else begin
            Hashtbl.replace depth tid (d - 1);
            Ok ()
          end
        | "X" ->
          let* () =
            match Json.member "dur" ev with
            | Some (Json.Num d) when d >= 0. -> Ok ()
            | Some _ -> Error (Printf.sprintf "event %d: bad dur" i)
            | None -> Error (Printf.sprintf "event %d: X event missing dur" i)
          in
          Ok ()
        | "i" | "I" -> Ok ()
        | p -> Error (Printf.sprintf "event %d: unsupported phase %S" i p)
      in
      incr counted;
      Ok ()
    end
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
      let* () = check i ev in
      go (i + 1) rest
  in
  let* () = go 0 evs in
  let* () =
    Hashtbl.fold
      (fun tid d acc ->
        let* () = acc in
        if d <> 0 then
          Error (Printf.sprintf "tid %d: %d unclosed B event(s)" tid d)
        else Ok ())
      depth (Ok ())
  in
  Ok !counted
