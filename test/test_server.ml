(* Planning-server tests: wire framing, protocol schema, journal
   durability (including torn writes at every byte offset), admission
   control, and end-to-end serving over a Unix socket with a
   warm-restart check. *)

open Testutil
module Json = Cf_obs.Json
module Crc32 = Cf_server.Crc32
module Frame = Cf_server.Frame
module Protocol = Cf_server.Protocol
module Journal = Cf_server.Journal
module Admission = Cf_server.Admission
module Server = Cf_server.Server
module Client = Cf_server.Client

let render nest = Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp nest

let tmp_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "cf_server_test.%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     dir)

let tmp_path name = Filename.concat (Lazy.force tmp_dir) name

(* --- CRC-32 --- *)

let crc_cases =
  [
    Alcotest.test_case "known vectors" `Quick (fun () ->
        (* The catalogue check value for the IEEE polynomial. *)
        check_bool "123456789" true
          (Crc32.string "123456789" = 0xCBF43926l);
        check_bool "empty" true (Crc32.string "" = 0l);
        check_bool "a" true (Crc32.string "a" = 0xE8B7BE43l));
    Alcotest.test_case "chained equals one-shot" `Quick (fun () ->
        let s = "the quick brown fox jumps over the lazy dog" in
        let split = 17 in
        let chained =
          Crc32.sub
            ~crc:(Crc32.sub s ~pos:0 ~len:split)
            s ~pos:split
            ~len:(String.length s - split)
        in
        check_bool "chained" true (chained = Crc32.string s);
        check_bool "sub is positional" true
          (Crc32.sub s ~pos:4 ~len:5 = Crc32.string (String.sub s 4 5)));
  ]

(* --- Framing --- *)

let frame_cases =
  [
    Alcotest.test_case "roundtrip, pipelined, byte-by-byte" `Quick (fun () ->
        let payloads = [ ""; "x"; String.make 1000 'q'; "{\"op\":\"plan\"}" ] in
        let wire = String.concat "" (List.map Frame.encode payloads) in
        (* All at once. *)
        let d = Frame.decoder () in
        Frame.feed d wire;
        List.iter
          (fun expected ->
            match Frame.next d with
            | `Frame got -> check_string "frame" expected got
            | _ -> Alcotest.fail "expected a frame")
          payloads;
        check_bool "drained" true (Frame.next d = `Await);
        check_int "no residue" 0 (Frame.buffered d);
        (* One byte at a time: same frames. *)
        let d = Frame.decoder () in
        let got = ref [] in
        String.iter
          (fun c ->
            Frame.feed d (String.make 1 c);
            match Frame.next d with
            | `Frame f -> got := f :: !got
            | `Await -> ()
            | `Oversized _ -> Alcotest.fail "unexpected oversize")
          wire;
        check_bool "byte-fed frames" true (List.rev !got = payloads));
    Alcotest.test_case "oversized length is terminal" `Quick (fun () ->
        let d = Frame.decoder ~max_frame:8 () in
        Frame.feed d (Frame.encode "123456789");
        (match Frame.next d with
        | `Oversized n -> check_int "announced" 9 n
        | _ -> Alcotest.fail "expected oversize");
        (* Dead decoder: feeding is a no-op and next keeps refusing. *)
        Frame.feed d (Frame.encode "ok");
        (match Frame.next d with
        | `Oversized _ -> ()
        | _ -> Alcotest.fail "decoder must stay dead");
        (* A length with the sign bit set must read as huge, not
           negative. *)
        let d = Frame.decoder () in
        Frame.feed d "\xff\xff\xff\xff";
        (match Frame.next d with
        | `Oversized _ -> ()
        | _ -> Alcotest.fail "0xffffffff must be oversized"));
    Alcotest.test_case "frames at the exact limit pass" `Quick (fun () ->
        let d = Frame.decoder ~max_frame:8 () in
        Frame.feed d (Frame.encode "12345678");
        match Frame.next d with
        | `Frame f -> check_string "limit frame" "12345678" f
        | _ -> Alcotest.fail "expected the frame");
  ]

(* --- Protocol --- *)

let parse_req s =
  match Json.parse s with
  | Ok j -> Protocol.request_of_json j
  | Error msg -> Alcotest.failf "test JSON invalid: %s" msg

let expect_code name expected = function
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error (code, _) ->
    check_string name
      (Protocol.code_string expected)
      (Protocol.code_string code)

let protocol_cases =
  [
    Alcotest.test_case "requests roundtrip through JSON" `Quick (fun () ->
        let reqs =
          [
            Protocol.Hello { version = 1; tenant = "gold" };
            Protocol.Plan
              {
                serve = false;
                src = "for i = 1 to 4\n  A[i] := 0;\nend";
                strategy = Cf_core.Strategy.Duplicate;
                search_radius = Some 2;
                timeout = Some 1.5;
              };
            Protocol.Plan
              {
                serve = true;
                src = "x";
                strategy = Cf_core.Strategy.Nonduplicate;
                search_radius = None;
                timeout = None;
              };
            Protocol.Stats;
            Protocol.Health;
          ]
        in
        List.iter
          (fun r ->
            match Protocol.request_of_json (Protocol.request_to_json r) with
            | Ok r' -> check_bool "roundtrip" true (r = r')
            | Error (_, msg) -> Alcotest.failf "roundtrip failed: %s" msg)
          reqs);
    Alcotest.test_case "schema violations get stable codes" `Quick (fun () ->
        expect_code "not an object" Protocol.Bad_request
          (parse_req "[1,2,3]");
        expect_code "missing op" Protocol.Bad_request (parse_req "{}");
        expect_code "unknown op" Protocol.Unknown_op
          (parse_req {|{"op":"frobnicate"}|});
        expect_code "hello without v" Protocol.Unsupported_version
          (parse_req {|{"op":"hello"}|});
        expect_code "hello with wrong v" Protocol.Unsupported_version
          (parse_req {|{"op":"hello","v":2}|});
        expect_code "plan without nest" Protocol.Bad_request
          (parse_req {|{"op":"plan"}|});
        expect_code "unknown strategy" Protocol.Bad_request
          (parse_req {|{"op":"plan","nest":"x","strategy":"turbo"}|});
        expect_code "fractional radius" Protocol.Bad_request
          (parse_req {|{"op":"plan","nest":"x","search_radius":1.5}|});
        (match parse_req {|{"op":"hello","v":1}|} with
        | Ok (Protocol.Hello { tenant; _ }) ->
          check_string "tenant defaults" "default" tenant
        | _ -> Alcotest.fail "bare hello must parse");
        match parse_req {|{"op":"plan_serve","nest":"x"}|} with
        | Ok (Protocol.Plan { serve; _ }) ->
          check_bool "plan_serve sets serve" true serve
        | _ -> Alcotest.fail "plan_serve must parse");
    Alcotest.test_case "error codes roundtrip, responses tagged" `Quick
      (fun () ->
        List.iter
          (fun (code, name) ->
            check_bool name true
              (Protocol.code_of_string name = Some code);
            let r = Protocol.error_response code in
            check_bool (name ^ " not ok") false (Protocol.is_ok r);
            check_bool (name ^ " code surfaces") true
              (Protocol.error_code_of r = Some code))
          Protocol.codes;
        check_bool "unknown code name" true
          (Protocol.code_of_string "nope" = None);
        check_bool "ok is ok" true (Protocol.is_ok Protocol.hello_ok);
        check_bool "ok has no code" true
          (Protocol.error_code_of Protocol.hello_ok = None));
  ]

(* --- Journal --- *)

let entries_of path = (Journal.replay_file path).Journal.entries

let read_all path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* The reference compaction: scan the whole file into memory, keep the
   latest record per key in journal order. *)
let whole_file_compaction ~key data =
  let rec scan acc pos =
    if pos + 8 > String.length data then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be data pos) in
      if len < 0 || pos + 8 + len > String.length data then List.rev acc
      else if
        Crc32.sub data ~pos:(pos + 8) ~len <> String.get_int32_be data (pos + 4)
      then List.rev acc
      else scan (String.sub data (pos + 8) len :: acc) (pos + 8 + len)
  in
  let indexed = List.mapi (fun i e -> (i, e)) (scan [] 8) in
  let latest = Hashtbl.create 64 in
  List.iter
    (fun (i, e) -> Option.iter (fun k -> Hashtbl.replace latest k i) (key e))
    indexed;
  List.filter_map
    (fun (i, e) ->
      match key e with
      | Some k when Hashtbl.find latest k = i -> Some e
      | _ -> None)
    indexed

let journal_cases =
  [
    Alcotest.test_case "append, close, replay in order" `Quick (fun () ->
        let path = tmp_path "basic.jrnl" in
        if Sys.file_exists path then Sys.remove path;
        let j, replay = Journal.open_ path in
        check_int "fresh is empty" 0 (List.length replay.Journal.entries);
        let payloads = [ "alpha"; ""; String.make 300 'z'; "omega" ] in
        List.iter (Journal.append j) payloads;
        Journal.close j;
        check_bool "replay preserves order and content" true
          (entries_of path = payloads);
        (* Reopening replays the same entries and appends after them. *)
        let j, replay = Journal.open_ path in
        check_bool "reopen replays" true (replay.Journal.entries = payloads);
        Journal.append j "tail";
        Journal.close j;
        check_bool "append after reopen" true
          (entries_of path = payloads @ [ "tail" ]));
    Alcotest.test_case "a corrupted record cuts the tail" `Quick (fun () ->
        let path = tmp_path "corrupt.jrnl" in
        if Sys.file_exists path then Sys.remove path;
        let j, _ = Journal.open_ path in
        Journal.append j "first";
        Journal.append j "second";
        Journal.close j;
        (* Flip one payload byte of the last record. *)
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
        let size = Unix.lseek fd 0 Unix.SEEK_END in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        ignore (Unix.write_substring fd "X" 0 1);
        Unix.close fd;
        let replay = Journal.replay_file path in
        check_bool "only the intact prefix survives" true
          (replay.Journal.entries = [ "first" ]);
        check_bool "truncation reported" true replay.Journal.truncated;
        check_bool "skipped bytes counted" true
          (replay.Journal.skipped_bytes > 0);
        (* Opening truncates the bad tail and keeps working. *)
        let j, _ = Journal.open_ path in
        Journal.append j "third";
        Journal.close j;
        check_bool "recovered journal accepts appends" true
          (entries_of path = [ "first"; "third" ]));
    Alcotest.test_case "arbitrary files are refused, torn headers are not"
      `Quick (fun () ->
        let path = tmp_path "notajournal" in
        let oc = open_out_bin path in
        output_string oc "definitely not a journal";
        close_out oc;
        (match Journal.replay_file path with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "bad header must be refused");
        (* A crash can leave a short prefix of the magic: that is an
           empty journal, not garbage. *)
        let oc = open_out_bin path in
        output_string oc "CFJ";
        close_out oc;
        let replay = Journal.replay_file path in
        check_bool "torn header replays empty" true
          (replay.Journal.entries = []);
        check_bool "torn header flagged" true replay.Journal.truncated;
        let j, _ = Journal.open_ path in
        Journal.append j "reborn";
        Journal.close j;
        check_bool "reinitialized" true (entries_of path = [ "reborn" ]));
    Alcotest.test_case "compaction keeps the latest record per key" `Quick
      (fun () ->
        let path = tmp_path "compact.jrnl" in
        if Sys.file_exists path then Sys.remove path;
        let j, _ = Journal.open_ path in
        List.iter (Journal.append j)
          [ "a=1"; "b=1"; "a=2"; "c=1"; "b=2"; "a=3"; "junk" ];
        let before = Journal.size j in
        let key e =
          match String.index_opt e '=' with
          | Some i -> Some (String.sub e 0 i)
          | None -> None (* dropped by compaction *)
        in
        Journal.compact j ~key;
        check_bool "journal shrank" true (Journal.size j < before);
        Journal.append j "d=1";
        Journal.close j;
        check_bool "latest wins, order stable, junk dropped" true
          (entries_of path = [ "c=1"; "b=2"; "a=3"; "d=1" ]);
        let j, _ = Journal.open_ path in
        check_int "compactions counted fresh per handle" 0
          (Journal.stats j).Journal.compactions;
        Journal.close j;
        (* Thousands of records over a few hundred keys, then damage:
           a torn tail past the committed size, or a corrupted record
           inside it.  The streamed compaction must write exactly what
           the whole-file algorithm keeps. *)
        let damaged name ~kept damage =
          if Sys.file_exists path then Sys.remove path;
          let j, _ = Journal.open_ path in
          let rng = Random.State.make [| 8 |] in
          for n = 1 to 3000 do
            Journal.append j
              (match Random.State.int rng 20 with
              | 0 -> Printf.sprintf "junk-%d" n
              | _ -> Printf.sprintf "k%d=%d" (Random.State.int rng 300) n)
          done;
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          damage fd (Journal.size j);
          Unix.close fd;
          let data = read_all path in
          (* Every payload is distinct, so keying on the payload itself
             keeps every record the whole-file scan accepts. *)
          check_bool (name ^ ": streamed replay = whole-file scan") true
            ((Journal.replay_file path).Journal.entries
            = whole_file_compaction ~key:Option.some data);
          let expected = whole_file_compaction ~key data in
          Journal.compact j ~key;
          Journal.close j;
          let replay = Journal.replay_file path in
          check_bool (name ^ ": streamed = whole-file") true
            (replay.Journal.entries = expected);
          check_bool (name ^ ": damage dropped") false replay.Journal.truncated;
          check_bool (name ^ ": keys kept") true (kept (List.length expected))
        in
        damaged "torn tail" ~kept:(fun n -> n > 250) (fun fd size ->
            ignore (Unix.lseek fd size Unix.SEEK_SET);
            ignore (Unix.write_substring fd "\000\000\000\040torn" 0 8));
        damaged "corrupt record" ~kept:(fun n -> n > 100 && n < 300)
          (fun fd size ->
            ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
            ignore (Unix.write_substring fd "\255" 0 1)));
    Alcotest.test_case "oversized records are refused" `Quick (fun () ->
        let path = tmp_path "bounds.jrnl" in
        if Sys.file_exists path then Sys.remove path;
        let j, _ = Journal.open_ ~max_record:16 path in
        (match Journal.append j (String.make 17 'x') with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "over-limit append must be refused");
        Journal.append j (String.make 16 'x');
        Journal.close j);
  ]

(* Torn-write property: truncate the journal at {e every} byte offset
   inside the last record; replay must always recover exactly the fully
   committed prefix and never crash. *)
let torn_write_cases =
  [
    Alcotest.test_case "truncation at every offset of the last record"
      `Quick (fun () ->
        let path = tmp_path "torn.jrnl" in
        if Sys.file_exists path then Sys.remove path;
        let committed = [ "plan-one"; "plan-two"; String.make 64 'p' ] in
        let j, _ = Journal.open_ path in
        List.iter (Journal.append j) committed;
        let last_start = Journal.size j in
        Journal.append j "the-torn-one";
        Journal.close j;
        let ic = open_in_bin path in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let torn = tmp_path "torn.cut.jrnl" in
        for cut = last_start to String.length data - 1 do
          let oc = open_out_bin torn in
          output_string oc (String.sub data 0 cut);
          close_out oc;
          let replay = Journal.replay_file torn in
          if replay.Journal.entries <> committed then
            Alcotest.failf "cut at %d: recovered %d entries, wanted %d" cut
              (List.length replay.Journal.entries)
              (List.length committed);
          check_bool
            (Printf.sprintf "cut at %d flags truncation" cut)
            (cut > last_start) replay.Journal.truncated;
          (* And the journal must boot and accept appends from there. *)
          let j, _ = Journal.open_ torn in
          Journal.append j "after-recovery";
          Journal.close j;
          if entries_of torn <> committed @ [ "after-recovery" ] then
            Alcotest.failf "cut at %d: recovery lost appends" cut
        done;
        (* The uncut journal still replays everything, proving the loop
           above exercised real prefixes of a good file. *)
        check_bool "uncut replays all" true
          (entries_of path = committed @ [ "the-torn-one" ]));
  ]

(* --- Admission control --- *)

let admission_cases =
  [
    Alcotest.test_case "token bucket rate-limits per tenant" `Quick (fun () ->
        let now = ref 0. in
        let metered =
          { Admission.default_tenant with name = "metered"; rate = 1.;
            burst = 2. }
        in
        let t =
          Admission.create ~clock:(fun () -> !now) ~capacity:100 [ metered ]
        in
        check_bool "burst 1" true (Admission.admit t "metered" = Admitted);
        check_bool "burst 2" true (Admission.admit t "metered" = Admitted);
        check_bool "bucket empty" true
          (Admission.admit t "metered" = Rate_limited);
        (* Other tenants are untouched by one tenant's bucket. *)
        check_bool "default unlimited" true
          (Admission.admit t "other" = Admitted);
        now := 1.05;
        check_bool "refills at rate" true
          (Admission.admit t "metered" = Admitted);
        check_bool "only one token refilled" true
          (Admission.admit t "metered" = Rate_limited));
    Alcotest.test_case "saturation rejects everyone" `Quick (fun () ->
        let t = Admission.create ~capacity:2 [] in
        check_bool "1" true (Admission.admit t "a" = Admitted);
        check_bool "2" true (Admission.admit t "b" = Admitted);
        check_bool "full" true (Admission.admit t "c" = Saturated);
        Admission.release t "a";
        check_bool "slot freed" true (Admission.admit t "c" = Admitted);
        check_int "outstanding" 2 (Admission.outstanding t));
    Alcotest.test_case "low priority is shed first under load" `Quick
      (fun () ->
        let gold =
          { Admission.default_tenant with name = "gold"; priority = 9;
            weight = 4 }
        in
        let bronze =
          { Admission.default_tenant with name = "bronze"; priority = 1 }
        in
        let t = Admission.create ~capacity:10 [ gold; bronze ] in
        (* Idle system: bronze borrows freely. *)
        check_bool "bronze admitted when idle" true
          (Admission.admit t "bronze" = Admitted);
        Admission.release t "bronze";
        for i = 1 to 6 do
          check_bool
            (Printf.sprintf "gold %d" i)
            true
            (Admission.admit t "gold" = Admitted)
        done;
        (* Occupancy 0.6: the watermark passed bronze's priority. *)
        (match Admission.admit t "bronze" with
        | Admission.Shed level -> check_bool "watermark rose" true (level > 1)
        | d ->
          Alcotest.failf "expected bronze shed, got %s"
            (match d with
            | Admission.Admitted -> "admitted"
            | Admission.Rate_limited -> "rate_limited"
            | Admission.Saturated -> "saturated"
            | Admission.Shed _ -> "shed"));
        check_bool "gold still admitted" true
          (Admission.admit t "gold" = Admitted);
        (* Load receding drops the watermark back below bronze. *)
        for _ = 1 to 3 do
          Admission.release t "gold"
        done;
        check_bool "bronze admitted again" true
          (Admission.admit t "bronze" = Admitted);
        let s = Admission.stats t in
        check_int "hwm" 7 s.Admission.hwm;
        let bronze_stats =
          List.find
            (fun ts -> ts.Admission.tenant.Admission.name = "bronze")
            s.Admission.tenants
        in
        check_int "bronze sheds counted" 1 bronze_stats.Admission.shed;
        ignore (Json.to_string (Admission.stats_to_json s)));
    Alcotest.test_case "weighted-fair slots under contention" `Quick
      (fun () ->
        let mk name =
          { Admission.default_tenant with name; priority = 9 }
        in
        let t = Admission.create ~capacity:4 [ mk "a"; mk "b" ] in
        check_bool "a1" true (Admission.admit t "a" = Admitted);
        check_bool "a2" true (Admission.admit t "a" = Admitted);
        check_bool "b1" true (Admission.admit t "b" = Admitted);
        (* Contended, equal weights: a already holds its 4*1/2 = 2
           slots, so its next request is shed while b's goes through. *)
        (match Admission.admit t "a" with
        | Admission.Shed _ -> ()
        | _ -> Alcotest.fail "greedy tenant must hit its fair share");
        check_bool "b2" true (Admission.admit t "b" = Admitted));
    Alcotest.test_case "tenant specs parse" `Quick (fun () ->
        (match Admission.tenant_of_spec "gold:priority=9,weight=4,rate=100,burst=20" with
        | Ok t ->
          check_string "name" "gold" t.Admission.name;
          check_int "priority" 9 t.Admission.priority;
          check_int "weight" 4 t.Admission.weight;
          check_bool "rate" true (t.Admission.rate = 100.);
          check_bool "burst" true (t.Admission.burst = 20.)
        | Error msg -> Alcotest.fail msg);
        (match Admission.tenant_of_spec "solo" with
        | Ok t ->
          check_string "bare name" "solo" t.Admission.name;
          check_bool "inherits defaults" true
            (t.Admission.rate = Admission.default_tenant.Admission.rate)
        | Error msg -> Alcotest.fail msg);
        (match Admission.tenant_of_spec "x:rate=inf" with
        | Ok t -> check_bool "inf rate" true (t.Admission.rate = infinity)
        | Error msg -> Alcotest.fail msg);
        List.iter
          (fun bad ->
            match Admission.tenant_of_spec bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "spec %S must be rejected" bad)
          [ ""; ":priority=1"; "t:priority=11"; "t:weight=0"; "t:rate=0";
            "t:burst=0"; "t:frobs=3"; "t:priority" ]);
    Alcotest.test_case "reconfigure preserves live work" `Quick (fun () ->
        let now = ref 0. in
        let metered =
          { Admission.default_tenant with name = "metered"; rate = 1.;
            burst = 2. }
        in
        let capped =
          { Admission.default_tenant with name = "capped"; rate = 1e-9;
            burst = 1. }
        in
        let t =
          Admission.create ~clock:(fun () -> !now) ~capacity:100
            [ metered; capped ]
        in
        check_bool "metered 1" true (Admission.admit t "metered" = Admitted);
        check_bool "metered 2" true (Admission.admit t "metered" = Admitted);
        check_bool "metered drained" true
          (Admission.admit t "metered" = Rate_limited);
        check_bool "capped 1" true (Admission.admit t "capped" = Admitted);
        check_bool "capped drained" true
          (Admission.admit t "capped" = Rate_limited);
        check_int "before reload" 3 (Admission.outstanding t);
        Admission.reconfigure t
          [
            { Admission.default_tenant with name = "metered"; rate = 100.;
              burst = 5. };
          ];
        (* In-flight work survives the reload untouched. *)
        check_int "after reload" 3 (Admission.outstanding t);
        (* The drained bucket is clamped, not refilled: a reload is not a
           free burst. *)
        check_bool "still drained" true
          (Admission.admit t "metered" = Rate_limited);
        (* ...but the new rate applies from the reload instant. *)
        now := 0.05;
        check_bool "refills at new rate" true
          (Admission.admit t "metered" = Admitted);
        (* A tenant dropped from the table reverts to the default
           (unmetered) profile. *)
        check_bool "unlisted reverts to default" true
          (Admission.admit t "capped" = Admitted);
        Admission.release t "metered";
        Admission.release t "metered";
        Admission.release t "metered";
        Admission.release t "capped";
        Admission.release t "capped";
        check_int "releases still account" 0 (Admission.outstanding t));
  ]

(* --- End-to-end over a Unix socket --- *)

let ok_or_fail name = function
  | Ok reply ->
    if not (Protocol.is_ok reply) then
      Alcotest.failf "%s: error reply %s" name (Json.to_string reply);
    reply
  | Error msg -> Alcotest.failf "%s: %s" name msg

let field name reply =
  match Json.member name reply with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S" name

let bool_field name reply =
  match field name reply with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a bool" name

let str_field name reply =
  match field name reply with
  | Json.Str s -> s
  | _ -> Alcotest.failf "field %S is not a string" name

(* Fully sequential recurrence: every theorem rejects it, so plan_serve
   must degrade to the fallback tier. *)
let chain_src = "for i = 1 to 4\n  A[i] := A[i - 1] + 1;\nend"

let l5_src =
  {|for i = 1 to 8
  for j = 1 to 8
    for k = 1 to 8
      C[i, j] := C[i, j] + A[i, k] * B[k, j];
    end
  end
end|}

let counter server name =
  match
    Option.bind (Json.member "metrics" (Server.stats_json server))
      (Json.member name)
  with
  | Some (Json.Num x) -> int_of_float x
  | _ -> Alcotest.failf "stats lack counter %S" name

let with_server ?(config = Server.default_config) name f =
  let sock = tmp_path (name ^ ".sock") in
  let server =
    Server.start
      {
        config with
        Server.unix_socket = Some sock;
        domains = Some (Option.value config.Server.domains ~default:2);
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f sock server)

let e2e_cases =
  [
    Alcotest.test_case "plan, cache hit, stats, health" `Quick (fun () ->
        with_server "basic" (fun sock _server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  let reply = ok_or_fail "plan l1" (Client.plan c (render l1)) in
                  check_bool "first plan misses" false
                    (bool_field "cache_hit" reply);
                  check_string "exact tier" "exact" (str_field "tier" reply);
                  let digest = str_field "digest" reply in
                  let reply2 =
                    ok_or_fail "replan l1" (Client.plan c (render l1))
                  in
                  check_bool "second plan hits" true
                    (bool_field "cache_hit" reply2);
                  check_string "same digest" digest (str_field "digest" reply2);
                  (* A renamed-but-identical nest hits the same entry. *)
                  let renamed =
                    Cf_cache.Canon.rename ~index:(fun v -> v ^ "w")
                      ~array:(fun a -> a ^ "W") l1
                  in
                  let reply3 =
                    ok_or_fail "renamed l1" (Client.plan c (render renamed))
                  in
                  check_bool "renamed nest hits" true
                    (bool_field "cache_hit" reply3);
                  check_string "canonical digest shared" digest
                    (str_field "digest" reply3);
                  let health = ok_or_fail "health" (Client.health c) in
                  check_bool "ready" true (bool_field "ready" health);
                  let stats = ok_or_fail "stats" (Client.stats c) in
                  check_bool "stats carries service block" true
                    (Json.member "service" stats <> None);
                  check_bool "stats carries admission block" true
                    (Json.member "admission" stats <> None);
                  check_bool "stats carries metrics block" true
                    (Json.member "metrics" stats <> None))));
    Alcotest.test_case "plan_serve degrades rejected nests" `Quick (fun () ->
        with_server "fallback" (fun sock _server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  let reply =
                    ok_or_fail "plan_serve chain"
                      (Client.plan ~serve:true c chain_src)
                  in
                  check_string "fallback tier" "fallback"
                    (str_field "tier" reply);
                  check_bool "predicts messages" true
                    (Json.member "predicted_messages" reply <> None);
                  (* Without serve, the same nest is an exact plan with
                     zero parallelism. *)
                  let plain = ok_or_fail "plan chain" (Client.plan c chain_src) in
                  check_string "exact tier" "exact" (str_field "tier" plain))));
    Alcotest.test_case "plan_serve falls back under the request's radius"
      `Quick (fun () ->
        (* examples/loops/l5.loop: under radius 0 the fallback tier picks
           psi[C], under the default radius theorem-2 (same volume). *)
        let nest = Cf_loop.Parse.nest l5_src in
        let expected =
          match Cf_pipeline.Pipeline.plan_serve ~search_radius:0 nest with
          | Cf_pipeline.Pipeline.Fallback (_, mc) -> mc
          | Cf_pipeline.Pipeline.Exact _ ->
            Alcotest.fail "Theorem 1 must reject L5"
        in
        check_string "in-process origin" "psi[C]"
          expected.Cf_mincomm.Mincomm.choice.Cf_mincomm.Mincomm.origin;
        with_server "radius" (fun sock _server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  let reply =
                    ok_or_fail "plan_serve l5 radius 0"
                      (Client.plan ~serve:true ~search_radius:0 c l5_src)
                  in
                  check_string "fallback tier" "fallback"
                    (str_field "tier" reply);
                  check_string "origin matches plan_serve"
                    expected.Cf_mincomm.Mincomm.choice.Cf_mincomm.Mincomm.origin
                    (str_field "origin" reply);
                  check_bool "volume matches plan_serve" true
                    (field "predicted_messages" reply
                    = Json.Num
                        (float_of_int
                           expected.Cf_mincomm.Mincomm.estimate
                             .Cf_mincomm.Mincomm.messages)))));
    Alcotest.test_case "cache off: the worker's canonical form keys replies"
      `Quick (fun () ->
        let config = { Server.default_config with Server.cache = None } in
        with_server ~config "nocache" (fun sock server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  let renamed =
                    Cf_cache.Canon.rename ~index:(fun v -> v ^ "w")
                      ~array:(fun a -> a ^ "W") l1
                  in
                  List.iter
                    (fun (name, nest) ->
                      let reply = ok_or_fail name (Client.plan c (render nest)) in
                      check_bool (name ^ " misses") false
                        (bool_field "cache_hit" reply);
                      check_string (name ^ " digest")
                        (Cf_cache.Canon.digest l1) (str_field "digest" reply))
                    [ ("l1", l1); ("renamed l1", renamed) ];
                  let serve () =
                    ok_or_fail "plan_serve chain"
                      (Client.plan ~serve:true c chain_src)
                  in
                  let a = serve () and b = serve () in
                  check_string "fallback tier" "fallback" (str_field "tier" a);
                  check_string "same origin" (str_field "origin" a)
                    (str_field "origin" b);
                  check_int "every fallback planned" 2
                    (counter server "server.fallback_planned"))));
    Alcotest.test_case "concurrent renamed plan_serve plans one fallback"
      `Quick (fun () ->
        (* Eight callers, eight namings of one rejected nest, four worker
           domains: one fallback is planned, each reply names its own
           caller's arrays (under radius 0 L5's choice is psi[C]). *)
        let config =
          { Server.default_config with Server.domains = Some 4;
            admit_capacity = 64 }
        in
        let nest = Cf_loop.Parse.nest l5_src in
        let renamed k =
          Cf_cache.Canon.rename
            ~index:(fun v -> Printf.sprintf "%s%d" v k)
            ~array:(fun a -> Printf.sprintf "%s_%d" a k)
            nest
        in
        with_server ~config "fallback-flight" (fun sock server ->
            let ready = Atomic.make 0 in
            let replies = Array.make 8 (Error "not run") in
            let ask k =
              match Client.connect_unix sock with
              | Error msg -> replies.(k) <- Error msg
              | Ok c ->
                Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                    Atomic.incr ready;
                    while Atomic.get ready < 8 do
                      Thread.yield ()
                    done;
                    replies.(k) <-
                      Client.plan ~serve:true ~search_radius:0 c
                        (render (renamed k)))
            in
            List.iter Thread.join (List.init 8 (Thread.create ask));
            Array.iteri
              (fun k r ->
                let reply = ok_or_fail (Printf.sprintf "caller %d" k) r in
                check_string "fallback tier" "fallback" (str_field "tier" reply);
                check_string "origin names the caller's array"
                  (Printf.sprintf "psi[C_%d]" k)
                  (str_field "origin" reply))
              replies;
            check_int "one fallback planned" 1
              (counter server "server.fallback_planned");
            check_int "eight fallbacks served" 8
              (counter server "server.fallback_served")));
    Alcotest.test_case "protocol errors surface with codes" `Quick (fun () ->
        with_server "errors" (fun sock _server ->
            (* Raw socket: skip the client's automatic handshake. *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                let d = Frame.decoder () in
                let ask payload =
                  Frame.write_frame fd payload;
                  match Frame.read_frame d fd with
                  | `Frame f -> (
                    match Json.parse f with
                    | Ok j -> j
                    | Error m -> Alcotest.failf "bad reply JSON: %s" m)
                  | _ -> Alcotest.fail "expected a reply frame"
                in
                let code payload =
                  match Protocol.error_code_of (ask payload) with
                  | Some c -> Protocol.code_string c
                  | None -> "ok"
                in
                check_string "no handshake" "handshake_required"
                  (code {|{"op":"stats"}|});
                check_string "bad json" "bad_json" (code "{nope");
                check_string "handshake accepted" "ok"
                  (code {|{"op":"hello","v":1,"tenant":"t"}|});
                check_string "unknown op" "unknown_op"
                  (code {|{"op":"frobnicate"}|});
                check_string "unparseable nest" "parse_error"
                  (code {|{"op":"plan","nest":"for i ="}|});
                check_string "planner failure" "plan_failed"
                  (code
                     {|{"op":"plan","nest":"for i = 1 to 4\n  A[i] := A[i, 1] + 1;\nend"}|});
                (* Version mismatch is refused and the connection
                   closed. *)
                check_string "wrong version" "unsupported_version"
                  (code {|{"op":"hello","v":99}|});
                match Frame.read_frame d fd with
                | `Eof -> ()
                | _ -> Alcotest.fail "server must hang up after version refusal")));
    Alcotest.test_case "oversized frames are rejected" `Quick (fun () ->
        with_server
          ~config:{ Server.default_config with Server.max_frame = 1024 }
          "oversize" (fun sock _server ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                Frame.write_frame fd (String.make 2048 ' ');
                let d = Frame.decoder () in
                (match Frame.read_frame d fd with
                | `Frame f -> (
                  match Json.parse f with
                  | Ok j ->
                    check_bool "oversized code" true
                      (Protocol.error_code_of j
                      = Some Protocol.Oversized_frame)
                  | Error m -> Alcotest.failf "bad reply: %s" m)
                | _ -> Alcotest.fail "expected the oversize error");
                match Frame.read_frame d fd with
                | `Eof -> ()
                | _ -> Alcotest.fail "server must hang up after oversize")));
    Alcotest.test_case "journal replay warms the cache across restart"
      `Quick (fun () ->
        let journal = tmp_path "restart.jrnl" in
        if Sys.file_exists journal then Sys.remove journal;
        let config =
          { Server.default_config with Server.journal = Some journal }
        in
        let served = [ ("l5", l5_src); ("chain", chain_src) ] in
        let before =
          with_server ~config "restart1" (fun sock _server ->
              match Client.connect_unix sock with
              | Error msg -> Alcotest.fail msg
              | Ok c ->
                Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                    List.iter
                      (fun (_, nest) ->
                        ignore
                          (ok_or_fail "seed plan" (Client.plan c (render nest))))
                      all_paper_loops;
                    List.map
                      (fun (name, src) ->
                        ok_or_fail name (Client.plan ~serve:true c src))
                      served))
        in
        (* A record as written before entries carried fallbacks: it
           replays as an exact-only entry. *)
        let chain = Cf_loop.Parse.nest chain_src in
        let canonical = Cf_cache.Canon.canonicalize chain in
        let j, _ = Journal.open_ journal in
        Journal.append j
          (Json.to_string
             (Json.Obj
                [
                  ("digest", Json.Str canonical.Cf_cache.Canon.digest);
                  ("strategy", Json.Str "duplicate");
                  ("nest", Json.Str (render canonical.Cf_cache.Canon.nest));
                ]));
        Journal.close j;
        let records = List.length all_paper_loops + List.length served + 1 in
        (* A brand-new server process (fresh service, fresh cache) on the
           same journal must serve every digest as a hit immediately. *)
        with_server ~config "restart2" (fun sock server ->
            let r = Server.replay_report server in
            check_int "every plan replayed" records r.Server.entries;
            check_int "every plan re-warmed" records r.Server.warmed;
            check_int "no bad entries" 0 r.Server.bad_entries;
            check_bool "clean tail" false r.Server.truncated;
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  List.iter
                    (fun (name, nest) ->
                      let reply =
                        ok_or_fail name (Client.plan c (render nest))
                      in
                      check_bool
                        (Printf.sprintf "%s hits after restart" name)
                        true
                        (bool_field "cache_hit" reply))
                    all_paper_loops;
                  List.iter2
                    (fun (name, src) old ->
                      let reply =
                        ok_or_fail name (Client.plan ~serve:true c src)
                      in
                      check_bool (name ^ " serve hits after restart") true
                        (bool_field "cache_hit" reply);
                      check_string (name ^ " fallback tier") "fallback"
                        (str_field "tier" reply);
                      check_string (name ^ " origin") (str_field "origin" old)
                        (str_field "origin" reply);
                      check_bool (name ^ " predicted messages") true
                        (field "predicted_messages" old
                        = field "predicted_messages" reply))
                    served before;
                  check_int "no fallback replanned" 0
                    (counter server "server.fallback_planned");
                  let old_format =
                    ok_or_fail "old-format record"
                      (Client.plan ~serve:true
                         ~strategy:Cf_core.Strategy.Duplicate c chain_src)
                  in
                  check_bool "old-format entry is warm" true
                    (bool_field "cache_hit" old_format);
                  check_int "its fallback is planned on demand" 1
                    (counter server "server.fallback_planned"))));
    Alcotest.test_case "a journal of distinct keys is not recompacted"
      `Quick (fun () ->
        (* Every record has its own key, so compaction cannot bring the
           journal back under the threshold; it must wait for the file
           to double instead of rewriting it on every compactor tick. *)
        let journal = tmp_path "distinct.jrnl" in
        if Sys.file_exists journal then Sys.remove journal;
        let config =
          {
            Server.default_config with
            Server.journal = Some journal;
            journal_max_bytes = 512;
          }
        in
        with_server ~config "distinct" (fun sock _server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  for m = 1 to 12 do
                    let src =
                      Printf.sprintf
                        "for i = 1 to %d\n  A[i] := A[i - 1] + 1;\nend" m
                    in
                    ignore (ok_or_fail "plan" (Client.plan c src))
                  done;
                  (* Ten compactor ticks with nothing appended. *)
                  Unix.sleepf 0.5;
                  let journal =
                    field "journal" (ok_or_fail "stats" (Client.stats c))
                  in
                  let num name =
                    match Json.member name journal with
                    | Some (Json.Num x) -> int_of_float x
                    | _ -> Alcotest.failf "journal stats lack %S" name
                  in
                  check_bool "over the threshold" true (num "size_bytes" > 512);
                  check_bool
                    (Printf.sprintf "%d compaction(s)" (num "compactions"))
                    true
                    (num "compactions" <= 3))));
    Alcotest.test_case "truncated journal tail boots and serves the rest"
      `Quick (fun () ->
        let journal = tmp_path "torn-boot.jrnl" in
        if Sys.file_exists journal then Sys.remove journal;
        let config =
          { Server.default_config with Server.journal = Some journal }
        in
        with_server ~config "torn1" (fun sock _server ->
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  ignore (ok_or_fail "plan l1" (Client.plan c (render l1)));
                  ignore (ok_or_fail "plan l2" (Client.plan c (render l2)))));
        (* Tear the last record in half, as a crash mid-append would. *)
        let fd = Unix.openfile journal [ Unix.O_RDWR ] 0o644 in
        let size = Unix.lseek fd 0 Unix.SEEK_END in
        Unix.ftruncate fd (size - 7);
        Unix.close fd;
        with_server ~config "torn2" (fun sock server ->
            let r = Server.replay_report server in
            check_int "intact entry replayed" 1 r.Server.entries;
            check_bool "tear detected" true r.Server.truncated;
            check_bool "torn bytes counted" true (r.Server.skipped_bytes > 0);
            match Client.connect_unix sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  let r1 = ok_or_fail "l1" (Client.plan c (render l1)) in
                  check_bool "committed entry is warm" true
                    (bool_field "cache_hit" r1);
                  let r2 = ok_or_fail "l2" (Client.plan c (render l2)) in
                  check_bool "torn entry replans cold" false
                    (bool_field "cache_hit" r2))));
    Alcotest.test_case "tenants are admitted and shed by identity" `Quick
      (fun () ->
        (* Capacity 1 and a rate-limited tenant: the second request in
           the same bucket window is refused with a stable code. *)
        let config =
          {
            Server.default_config with
            Server.admit_capacity = 1;
            tenants =
              [
                { Admission.default_tenant with name = "meter"; rate = 1e-9;
                  burst = 1. };
              ];
          }
        in
        with_server ~config "tenants" (fun sock _server ->
            match Client.connect_unix ~tenant:"meter" sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  ignore (ok_or_fail "first" (Client.plan c (render l1)));
                  match Client.plan c (render l1) with
                  | Ok reply ->
                    check_bool "bucket empty" true
                      (Protocol.error_code_of reply
                      = Some Protocol.Rate_limited)
                  | Error msg -> Alcotest.fail msg)));
    Alcotest.test_case "tenant table reloads without dropping connections"
      `Quick (fun () ->
        let tenants_file = tmp_path "tenants.txt" in
        let write_tenants lines =
          let oc = open_out tenants_file in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc
        in
        write_tenants [ "# starved until the reload"; "meter:rate=1e-9,burst=1" ];
        let config =
          { Server.default_config with Server.tenants_file = Some tenants_file }
        in
        with_server ~config "reload" (fun sock _server ->
            match Client.connect_unix ~tenant:"meter" sock with
            | Error msg -> Alcotest.fail msg
            | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                  ignore (ok_or_fail "first plan" (Client.plan c (render l1)));
                  (match Client.plan c (render l1) with
                  | Ok reply ->
                    check_bool "starved before reload" true
                      (Protocol.error_code_of reply
                      = Some Protocol.Rate_limited)
                  | Error msg -> Alcotest.fail msg);
                  (* Re-provision on disk, then reload over the very
                     connection that is being re-metered. *)
                  write_tenants
                    [ "meter:rate=1000000,burst=4"; "extra:priority=5" ];
                  let reply = ok_or_fail "reload" (Client.reload c) in
                  check_string "reload op" "reload" (str_field "op" reply);
                  (match field "tenants" reply with
                  | Json.Num n -> check_int "tenant count" 2 (int_of_float n)
                  | _ -> Alcotest.fail "tenants field is not a number");
                  check_string "source is the file" tenants_file
                    (str_field "source" reply);
                  (* The live connection keeps working under the new
                     profile: the once-starved tenant plans again. *)
                  let replanned =
                    ok_or_fail "plan after reload" (Client.plan c (render l1))
                  in
                  check_bool "served from cache" true
                    (bool_field "cache_hit" replanned);
                  ignore (ok_or_fail "stats after reload" (Client.stats c)));
            (* A broken table must reject wholesale and leave the old
               profiles standing. *)
            write_tenants [ "meter:rate=oops" ];
            match Server.reload_tenants _server with
            | Ok _ -> Alcotest.fail "bad tenants file must be rejected"
            | Error msg ->
              let contains s sub =
                let n = String.length s and m = String.length sub in
                let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
                go 0
              in
              check_bool "error names the file" true
                (contains msg tenants_file)));
  ]

let suites =
  [
    ("server-crc32", crc_cases);
    ("server-frame", frame_cases);
    ("server-protocol", protocol_cases);
    ("server-journal", journal_cases);
    ("server-journal-torn", torn_write_cases);
    ("server-admission", admission_cases);
    ("server-e2e", e2e_cases);
  ]
