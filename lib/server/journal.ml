let magic = "CFJRNL01"
let header_len = String.length magic
let default_max_record = 1 lsl 20

type t = {
  path : string;
  fsync_every : int;
  max_record : int;
  lock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable oc : out_channel;
  mutable size : int;  (* committed bytes: header + whole records *)
  mutable unsynced : int;  (* appends since the last fsync *)
  mutable closed : bool;
  mutable appended : int;
  mutable syncs : int;
  mutable compactions : int;
  replayed : int;
  replay_skipped_bytes : int;
}

type replay = {
  entries : string list;
  skipped_bytes : int;
  truncated : bool;
}

let encode_record payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int32_be b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.unsafe_to_string b

(* Committed records of [path] read one at a time, up to [limit] bytes:
   [f index header payload] per record, stopping at the first damaged
   one — anything from there on is the torn tail.  [header] is the
   record's 8 length and CRC bytes, which stay valid for a verbatim
   copy.  Returns the offset just past the last good record. *)
let fold_records ~max_record ~limit path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header = Bytes.create 8 in
      let rec go i pos =
        if pos + 8 > limit then pos
        else begin
          really_input ic header 0 8;
          let len =
            let raw = Int32.to_int (Bytes.get_int32_be header 0) in
            if raw < 0 then max_int else raw
          in
          if len > max_record || pos + 8 + len > limit then pos
          else begin
            let payload = really_input_string ic len in
            if Crc32.string payload <> Bytes.get_int32_be header 4 then pos
            else begin
              f i header payload;
              go (i + 1) (pos + 8 + len)
            end
          end
        end
      in
      seek_in ic header_len;
      go 0 header_len)

(* The file's length and its first [header_len] bytes (fewer if it is
   shorter). *)
let read_head path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      (n, really_input_string ic (min n header_len)))

(* [good_end]: where appends must resume — header_len for a fresh or
   header-torn file, end-of-last-good-record otherwise. *)
let replay_and_end ~max_record path =
  if not (Sys.file_exists path) then
    ({ entries = []; skipped_bytes = 0; truncated = false }, 0, false)
  else begin
    let n, head = read_head path in
    let not_a_journal () =
      invalid_arg
        (Printf.sprintf "Journal: %s is not a journal (bad header)" path)
    in
    if n < header_len then begin
      (* Only a crash while writing our own header leaves a short prefix
         of the magic; anything else is not a journal. *)
      if not (String.equal head (String.sub magic 0 n)) then not_a_journal ();
      ({ entries = []; skipped_bytes = n; truncated = n > 0 }, 0, true)
    end
    else if not (String.equal head magic) then not_a_journal ()
    else begin
      let entries = ref [] in
      let good_end =
        fold_records ~max_record ~limit:n path (fun _ _ e ->
            entries := e :: !entries)
      in
      ( {
          entries = List.rev !entries;
          skipped_bytes = n - good_end;
          truncated = n > good_end;
        },
        good_end,
        true )
    end
  end

let replay_file ?(max_record = default_max_record) path =
  let r, _, _ = replay_and_end ~max_record path in
  r

let open_ ?(fsync_every = 8) ?(max_record = default_max_record) path =
  if fsync_every < 1 then
    invalid_arg "Journal.open_: fsync_every must be >= 1";
  let replay, good_end, existed = replay_and_end ~max_record path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size =
    if good_end < header_len then begin
      (* Fresh file (or a torn header): (re)write the magic durably
         before any record can land after it. *)
      Unix.ftruncate fd 0;
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let n = Unix.write_substring fd magic 0 header_len in
      assert (n = header_len);
      Unix.fsync fd;
      header_len
    end
    else begin
      if existed && replay.truncated then Unix.ftruncate fd good_end;
      ignore (Unix.lseek fd good_end Unix.SEEK_SET);
      good_end
    end
  in
  let t =
    {
      path;
      fsync_every;
      max_record;
      lock = Mutex.create ();
      fd;
      oc = Unix.out_channel_of_descr fd;
      size;
      unsynced = 0;
      closed = false;
      appended = 0;
      syncs = 0;
      compactions = 0;
      replayed = List.length replay.entries;
      replay_skipped_bytes = replay.skipped_bytes;
    }
  in
  (t, replay)

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let sync_locked t =
  flush t.oc;
  Unix.fsync t.fd;
  t.syncs <- t.syncs + 1;
  t.unsynced <- 0

let append t payload =
  if String.length payload > t.max_record then
    invalid_arg "Journal.append: record exceeds max_record";
  locked t (fun () ->
      if t.closed then raise (Sys_error "Journal.append: journal is closed");
      let rec_ = encode_record payload in
      output_string t.oc rec_;
      (* Flush to the OS per append: a killed process loses nothing it
         acknowledged.  fsync (power-loss durability) is batched. *)
      flush t.oc;
      t.size <- t.size + String.length rec_;
      t.appended <- t.appended + 1;
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= t.fsync_every then sync_locked t)

let sync t =
  locked t (fun () -> if not t.closed then sync_locked t)

(* Two streamed passes over the committed records — the latest index
   per key, then the copy — so memory holds one record and the key
   table, never the file. *)
let compact t ~key =
  locked t (fun () ->
      if t.closed then raise (Sys_error "Journal.compact: journal is closed");
      flush t.oc;
      let fold f =
        ignore (fold_records ~max_record:t.max_record ~limit:t.size t.path f)
      in
      (* Latest record wins per key, and keeps its position, so replay
         order stays stable. *)
      let latest = Hashtbl.create 64 in
      fold (fun i _ e -> Option.iter (fun k -> Hashtbl.replace latest k i) (key e));
      let tmp = t.path ^ ".compact" in
      let tfd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let toc = Unix.out_channel_of_descr tfd in
      output_string toc magic;
      fold (fun i header e ->
          match key e with
          | Some k when Hashtbl.find latest k = i ->
            output_bytes toc header;
            output_string toc e
          | _ -> ());
      flush toc;
      Unix.fsync tfd;
      close_out toc;
      Unix.rename tmp t.path;
      (* Swap the live descriptor over to the compacted file. *)
      close_out_noerr t.oc;
      let fd = Unix.openfile t.path [ Unix.O_RDWR ] 0o644 in
      let size = Unix.lseek fd 0 Unix.SEEK_END in
      t.fd <- fd;
      t.oc <- Unix.out_channel_of_descr fd;
      t.size <- size;
      t.unsynced <- 0;
      t.compactions <- t.compactions + 1)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        sync_locked t;
        t.closed <- true;
        close_out_noerr t.oc
      end)

let size t = locked t (fun () -> t.size)
let path t = t.path

type stats = {
  appended : int;
  syncs : int;
  compactions : int;
  replayed : int;
  replay_skipped_bytes : int;
}

let stats t =
  locked t (fun () ->
      {
        appended = t.appended;
        syncs = t.syncs;
        compactions = t.compactions;
        replayed = t.replayed;
        replay_skipped_bytes = t.replay_skipped_bytes;
      })
