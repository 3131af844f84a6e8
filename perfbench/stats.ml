(* Order statistics for the benchmark's reported timings. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  The tolerance absorbs binary rounding of
   decimal percentiles (99.9% of 10000 is rank 9990, not 9991). *)
let rank n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(min n (rank n p) - 1)

let median samples = percentile (sorted samples) 50.

let beyond n p = n - min n (rank n p)

let ladder = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 75.; 50. ]

let min_beyond = 10

let tail ?(max_p = 99.) sorted =
  let n = Array.length sorted in
  let p =
    match
      List.find_opt (fun p -> p <= max_p && beyond n p >= min_beyond) ladder
    with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile sorted p)

let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())
