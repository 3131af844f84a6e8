open Cf_machine
open Testutil

let feq = Alcotest.(check (float 1e-9))

let topology_cases =
  [
    Alcotest.test_case "mesh basics" `Quick (fun () ->
        let t = Topology.mesh [| 4; 4 |] in
        check_int "size" 16 (Topology.size t);
        check_int "ndims" 2 (Topology.ndims t);
        check_int "diameter" 6 (Topology.diameter t);
        Alcotest.check_raises "bad extent"
          (Invalid_argument "Topology.mesh: extent < 1") (fun () ->
            ignore (Topology.mesh [| 0 |])));
    Alcotest.test_case "rank/coords roundtrip" `Quick (fun () ->
        let t = Topology.mesh [| 3; 4 |] in
        for r = 0 to Topology.size t - 1 do
          check_int "roundtrip" r
            (Topology.rank_of_coords t (Topology.coords_of_rank t r))
        done;
        check_int "row-major" 5 (Topology.rank_of_coords t [| 1; 1 |]));
    Alcotest.test_case "distance" `Quick (fun () ->
        let t = Topology.square 16 in
        check_int "corner to corner" 6
          (Topology.distance t 0 (Topology.size t - 1));
        check_int "self" 0 (Topology.distance t 5 5));
    Alcotest.test_case "square validation" `Quick (fun () ->
        check_int "sqrt" 4 (Topology.size (Topology.square 4));
        Alcotest.check_raises "not square"
          (Invalid_argument "Topology.square: not a perfect square") (fun () ->
            ignore (Topology.square 5)));
    Alcotest.test_case "grid_of_procs (paper's shape rule)" `Quick (fun () ->
        Alcotest.check Alcotest.(array int) "16, k=2" [| 4; 4 |]
          (Topology.grid_of_procs ~k:2 16);
        Alcotest.check Alcotest.(array int) "8, k=2" [| 2; 4 |]
          (Topology.grid_of_procs ~k:2 8);
        Alcotest.check Alcotest.(array int) "5, k=1" [| 5 |]
          (Topology.grid_of_procs ~k:1 5);
        Alcotest.check Alcotest.(array int) "27, k=3" [| 3; 3; 3 |]
          (Topology.grid_of_procs ~k:3 27));
    Alcotest.test_case "grid_of_procs degenerate shapes" `Quick (fun () ->
        (* p = 1: every extent collapses to 1. *)
        Alcotest.check Alcotest.(array int) "1, k=3" [| 1; 1; 1 |]
          (Topology.grid_of_procs ~k:3 1);
        (* Prime p can't factor: the tail dimension absorbs the rest. *)
        Alcotest.check Alcotest.(array int) "13, k=2" [| 3; 4 |]
          (Topology.grid_of_procs ~k:2 13);
        (* k > log2 p: leading extents degenerate to 1, never 0. *)
        Alcotest.check Alcotest.(array int) "8, k=6" [| 1; 1; 1; 1; 1; 8 |]
          (Topology.grid_of_procs ~k:6 8));
    qtest "grid_of_procs extents are >= 1 and fit the machine" ~count:300
      (fun (k, p) ->
        let dims = Topology.grid_of_procs ~k p in
        Array.length dims = k
        && Array.for_all (fun d -> d >= 1) dims
        && Array.fold_left ( * ) 1 dims <= p)
      QCheck.(pair (int_range 1 6) (int_range 1 100));
  ]

let cost_cases =
  [
    Alcotest.test_case "message and compute" `Quick (fun () ->
        let c = Cost.make ~t_comp:1e-6 ~t_start:1e-4 ~t_comm:1e-6 in
        feq "one hop" (1e-4 +. (10. *. 1e-6)) (Cost.message c ~hops:1 ~size:10);
        feq "pipeline fill" (1e-4 +. (12. *. 1e-6))
          (Cost.message c ~hops:3 ~size:10);
        feq "compute" 5e-6 (Cost.compute c ~iterations:5);
        Alcotest.check_raises "negative" (Invalid_argument "Cost.compute")
          (fun () -> ignore (Cost.compute c ~iterations:(-1))));
    Alcotest.test_case "sat_add saturates at the int boundaries" `Quick
      (fun () ->
        check_int "ordinary add" 7 (Cost.sat_add 3 4);
        check_int "mixed signs" (-1) (Cost.sat_add 3 (-4));
        check_int "positive overflow pegs" max_int (Cost.sat_add max_int 1);
        check_int "large positive overflow pegs" max_int
          (Cost.sat_add (max_int - 10) (max_int - 10));
        check_int "negative overflow pegs" min_int (Cost.sat_add min_int (-1));
        check_int "exact max is untouched" max_int (Cost.sat_add max_int 0);
        check_int "cancel to zero" 0 (Cost.sat_add max_int (-max_int)));
    Alcotest.test_case "iteration totals saturate instead of wrapping" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        Machine.run_iterations m ~pe:0 (max_int - 10);
        Machine.run_iterations m ~pe:0 (max_int - 10);
        check_int "pegged at max_int" max_int (Machine.iterations_of m ~pe:0);
        (* A wrap would have gone negative and corrupted every
           downstream report; saturation keeps the total a ceiling. *)
        check_bool "still positive" true (Machine.iterations_of m ~pe:0 > 0);
        check_int "other pe untouched" 0 (Machine.iterations_of m ~pe:1));
  ]

let machine_cases =
  [
    Alcotest.test_case "local memory semantics" `Quick (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        Machine.store m ~pe:0 "A" [| 1; 1 |] 42;
        check_int "read back" 42 (Machine.read m ~pe:0 "A" [| 1; 1 |]);
        check_bool "holds" true (Machine.holds m ~pe:0 "A" [| 1; 1 |]);
        check_bool "not on other pe" false (Machine.holds m ~pe:1 "A" [| 1; 1 |]);
        Machine.write m ~pe:0 "A" [| 1; 1 |] 43;
        check_int "updated" 43 (Machine.read m ~pe:0 "A" [| 1; 1 |]));
    Alcotest.test_case "remote access raises" `Quick (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        Machine.store m ~pe:0 "A" [| 1 |] 1;
        (match Machine.read m ~pe:1 "A" [| 1 |] with
         | exception Machine.Remote_access { pe; array; element } ->
           check_int "pe" 1 pe;
           check_string "array" "A" array;
           Alcotest.check Alcotest.(array int) "element" [| 1 |] element
         | _ -> Alcotest.fail "expected Remote_access");
        (match Machine.write m ~pe:1 "A" [| 1 |] 9 with
         | exception Machine.Remote_access _ -> ()
         | _ -> Alcotest.fail "write needs ownership"));
    Alcotest.test_case "host_send charges the paper's unicast cost" `Quick
      (fun () ->
        let c = Cost.make ~t_comp:0. ~t_start:1e-4 ~t_comm:1e-6 in
        let m = Machine.create (Topology.linear 4) c in
        Machine.host_send m ~pe:0 "A" [ ([| 1 |], 5); ([| 2 |], 6) ];
        (* hops = 1, size = 2 -> t_start + 2 t_comm *)
        feq "cost" (1e-4 +. 2e-6) (Machine.distribution_time m);
        check_int "messages" 1 (Machine.message_count m);
        check_int "volume" 2 (Machine.message_volume m);
        check_int "data arrived" 5 (Machine.read m ~pe:0 "A" [| 1 |]));
    Alcotest.test_case "host_broadcast floods everyone" `Quick (fun () ->
        let c = Cost.make ~t_comp:0. ~t_start:1e-4 ~t_comm:1e-6 in
        let m = Machine.create (Topology.square 16) c in
        Machine.host_broadcast m "B" [ ([| 1 |], 7) ];
        for pe = 0 to 15 do
          check_int "everywhere" 7 (Machine.read m ~pe "B" [| 1 |])
        done;
        (* hops = diameter + 1 = 7, size = 1 -> t_start + 7 t_comm. *)
        feq "store-and-forward cost" (1e-4 +. 7e-6)
          (Machine.distribution_time m));
    Alcotest.test_case "host_multicast reaches the group" `Quick (fun () ->
        let c = Cost.make ~t_comp:0. ~t_start:1e-4 ~t_comm:1e-6 in
        let m = Machine.create (Topology.square 4) c in
        Machine.host_multicast m ~pes:[ 0; 1 ] "A" [ ([| 1 |], 3); ([| 2 |], 4) ];
        check_int "member 0" 3 (Machine.read m ~pe:0 "A" [| 1 |]);
        check_int "member 1" 4 (Machine.read m ~pe:1 "A" [| 2 |]);
        check_bool "non-member excluded" false (Machine.holds m ~pe:2 "A" [| 1 |]);
        (* hops = dist(0,1)+1 = 2; charge = t_start + (2*2 + 2) t_comm. *)
        feq "pipelined double-pass cost" (1e-4 +. 6e-6)
          (Machine.distribution_time m));
    Alcotest.test_case "compute accounting and makespan" `Quick (fun () ->
        let c = Cost.make ~t_comp:2e-6 ~t_start:1e-4 ~t_comm:1e-6 in
        let m = Machine.create (Topology.linear 2) c in
        Machine.run_iterations m ~pe:0 100;
        Machine.run_iterations m ~pe:1 50;
        feq "pe0" 2e-4 (Machine.compute_time m ~pe:0);
        feq "max" 2e-4 (Machine.max_compute_time m);
        check_int "iterations" 100 (Machine.iterations_of m ~pe:0);
        Machine.host_send m ~pe:1 "A" [ ([| 1 |], 1) ];
        feq "makespan = dist + max compute"
          (Machine.distribution_time m +. 2e-4)
          (Machine.makespan m);
        Machine.reset_stats m;
        feq "reset" 0. (Machine.makespan m));
  ]

let trace_cases =
  [
    Alcotest.test_case "distribution events recorded in order" `Quick
      (fun () ->
        let m = Machine.create (Topology.square 4) Cost.transputer in
        Machine.host_send m ~pe:1 "A" [ ([| 1 |], 1) ];
        Machine.host_broadcast m "B" [ ([| 1 |], 2); ([| 2 |], 3) ];
        Machine.host_multicast m ~pes:[ 0; 2 ] "C" [ ([| 5 |], 9) ];
        (match Machine.trace m with
         | [ Machine.Send { pe = 1; array = "A"; size = 1 };
             Machine.Broadcast { array = "B"; size = 2 };
             Machine.Multicast { pes = [ 0; 2 ]; array = "C"; size = 1 } ] ->
           ()
         | evs ->
           Alcotest.failf "unexpected trace (%d events): %s"
             (List.length evs)
             (String.concat "; "
                (List.map (Format.asprintf "%a" Machine.pp_event) evs)));
        Machine.reset_stats m;
        check_bool "trace cleared" true (Machine.trace m = []));
    Alcotest.test_case "matmul L5'' trace shape" `Quick (fun () ->
        (* Distribution of L5'' issues 2*sqrt(p) multicasts and no
           broadcast. *)
        let r = Cf_exec.Matmul.simulate Cf_exec.Matmul.Dup_ab ~m:4 ~p:4 in
        let machine = r.Cf_exec.Matmul.report.Cf_exec.Parexec.machine in
        let evs = Machine.trace machine in
        check_int "4 multicasts" 4
          (List.length
             (List.filter
                (function Machine.Multicast _ -> true | _ -> false)
                evs));
        check_int "no broadcast" 0
          (List.length
             (List.filter
                (function Machine.Broadcast _ -> true | _ -> false)
                evs)));
    Alcotest.test_case "matmul L5' trace shape" `Quick (fun () ->
        (* L5' sends row blocks and broadcasts B. *)
        let r = Cf_exec.Matmul.simulate Cf_exec.Matmul.Dup_b ~m:4 ~p:4 in
        let machine = r.Cf_exec.Matmul.report.Cf_exec.Parexec.machine in
        let evs = Machine.trace machine in
        check_int "one broadcast of B" 1
          (List.length
             (List.filter
                (function
                  | Machine.Broadcast { array = "B"; _ } -> true
                  | _ -> false)
                evs));
        check_int "4 row sends of A" 4
          (List.length
             (List.filter
                (function
                  | Machine.Send { array = "A"; _ } -> true
                  | _ -> false)
                evs)));
  ]

let memory_cases =
  [
    Alcotest.test_case "memory_words counts resident elements" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        check_int "empty" 0 (Machine.memory_words m ~pe:0);
        Machine.store m ~pe:0 "A" [| 1 |] 1;
        Machine.store m ~pe:0 "A" [| 2 |] 2;
        Machine.store m ~pe:0 "A" [| 2 |] 3 (* overwrite, not growth *);
        check_int "two elements" 2 (Machine.memory_words m ~pe:0);
        check_int "other pe untouched" 0 (Machine.memory_words m ~pe:1));
    Alcotest.test_case "pack_coords roundtrips and separates arities" `Quick
      (fun () ->
        let els =
          [ [||]; [| 0 |]; [| -1 |]; [| 123456 |]; [| -3; 7 |];
            [| 1; 2; 3 |]; [| -9; 0; 9 |]; [| 1; -2; 3; -4; 5; -6; 7 |] ]
        in
        List.iter
          (fun el ->
            Alcotest.check
              Alcotest.(array int)
              "unpack (pack el) = el" el
              (Machine.unpack_coords (Machine.pack_coords el)))
          els;
        (* Distinct coordinates (including across arities) never share a
           key: [|1|] vs [|1;0|] vs [|0;1|] etc. *)
        let keys = List.map Machine.pack_coords els in
        check_int "all keys distinct"
          (List.length keys)
          (List.length (List.sort_uniq compare keys));
        Alcotest.check_raises "8-dimensional rejected"
          (Invalid_argument "Machine: arrays beyond 7 dimensions are unsupported")
          (fun () -> ignore (Machine.pack_coords (Array.make 8 0)));
        Alcotest.check_raises "out-of-range subscript rejected"
          (Invalid_argument "Machine: subscript magnitude exceeds packable range")
          (fun () -> ignore (Machine.pack_coords [| 1 lsl 20; 0; 0 |])));
    Alcotest.test_case "compact preserves read/write/holds semantics" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        (* A dense 6x6 block with one hole: promoted to a flat buffer. *)
        for i = 0 to 5 do
          for j = 0 to 5 do
            if not (i = 2 && j = 3) then
              Machine.store m ~pe:0 "A" [| i; j |] ((10 * i) + j)
          done
        done;
        let words = Machine.memory_words m ~pe:0 in
        Machine.compact m;
        check_int "words unchanged" words (Machine.memory_words m ~pe:0);
        for i = 0 to 5 do
          for j = 0 to 5 do
            if i = 2 && j = 3 then
              check_bool "hole still absent" false
                (Machine.holds m ~pe:0 "A" [| i; j |])
            else
              check_int "value survives" ((10 * i) + j)
                (Machine.read m ~pe:0 "A" [| i; j |])
          done
        done;
        (match Machine.read m ~pe:0 "A" [| 2; 3 |] with
         | exception Machine.Remote_access _ -> ()
         | _ -> Alcotest.fail "hole must still fault");
        Machine.write m ~pe:0 "A" [| 0; 0 |] 99;
        check_int "write through flat" 99 (Machine.read m ~pe:0 "A" [| 0; 0 |]);
        (* A store outside the compacted box falls back to sparse
           without losing anything. *)
        Machine.store m ~pe:0 "A" [| 100; 100 |] 7;
        check_int "escape stored" 7 (Machine.read m ~pe:0 "A" [| 100; 100 |]);
        check_int "old value intact" 99 (Machine.read m ~pe:0 "A" [| 0; 0 |]);
        check_int "grown by one" (words + 1) (Machine.memory_words m ~pe:0));
    Alcotest.test_case "install_id equals element-wise stores" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        let aid = Machine.array_id m "A" in
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace tbl (Machine.pack_coords [| 1; 2 |]) 12;
        Hashtbl.replace tbl (Machine.pack_coords [| 3; 4 |]) 34;
        Machine.install_id m ~pe:1 aid tbl;
        check_int "read via string API" 12 (Machine.read m ~pe:1 "A" [| 1; 2 |]);
        check_int "read via id API" 34 (Machine.read_id m ~pe:1 aid [| 3; 4 |]);
        check_bool "absent element" false
          (Machine.holds m ~pe:1 "A" [| 9; 9 |]);
        check_int "two words resident" 2 (Machine.memory_words m ~pe:1);
        check_bool "other pe untouched" false
          (Machine.holds m ~pe:0 "A" [| 1; 2 |]));
  ]

(* {2 Delta checkpoints}

   The write journal and the generation-stamped chain behind
   [Machine.checkpoint ~mode:`Delta]: captures cost O(writes since the
   previous capture), fold per cell is latest-wins, deltas survive the
   sparse->flat promotion and flat->sparse demotion boundaries, and
   [restore] re-runs the promotion policy instead of resurrecting the
   checkpointed representation. *)

let checkpoint_cases =
  [
    Alcotest.test_case "delta checkpoint_words is O(writes) not O(memory)"
      `Quick (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        for i = 0 to 99 do
          Machine.store m ~pe:0 "A" [| i |] i
        done;
        let g0 = Machine.generation m in
        (* First delta checkpoint has no chain to extend: it pays for a
           full base once. *)
        let base = Machine.checkpoint m in
        check_int "base pays the full memory once" 100
          (Machine.checkpoint_words base);
        check_bool "generation advanced" true (Machine.generation m > g0);
        (* k writes (one cell twice: latest-wins, one word). *)
        Machine.write m ~pe:0 "A" [| 3 |] 333;
        Machine.write m ~pe:0 "A" [| 7 |] 777;
        Machine.write m ~pe:0 "A" [| 3 |] 334;
        check_int "journal sees two dirty cells" 2 (Machine.journal_words m);
        let d1 = Machine.checkpoint m in
        check_int "delta pays only the writes" 2 (Machine.checkpoint_words d1);
        check_int "capture drains the journal" 0 (Machine.journal_words m);
        let d2 = Machine.checkpoint m in
        check_int "no writes, empty delta" 0 (Machine.checkpoint_words d2));
    Alcotest.test_case "delta fold is latest-wins per cell" `Quick (fun () ->
        let m = Machine.create (Topology.linear 1) Cost.transputer in
        Machine.store m ~pe:0 "A" [| 1 |] 1;
        Machine.store m ~pe:0 "A" [| 2 |] 2;
        let c0 = Machine.checkpoint m in
        (* Interleaved rewrites of the same cells, in both orders. *)
        Machine.write m ~pe:0 "A" [| 1 |] 10;
        Machine.write m ~pe:0 "A" [| 2 |] 20;
        Machine.write m ~pe:0 "A" [| 1 |] 11;
        Machine.write m ~pe:0 "A" [| 2 |] 22;
        Machine.write m ~pe:0 "A" [| 1 |] 12;
        let c1 = Machine.checkpoint m in
        check_int "one word per cell, however many rewrites" 2
          (Machine.checkpoint_words c1);
        Machine.write m ~pe:0 "A" [| 1 |] 999;
        Machine.write m ~pe:0 "A" [| 2 |] 999;
        Machine.restore m c1;
        check_int "latest value of cell 1" 12 (Machine.read m ~pe:0 "A" [| 1 |]);
        check_int "latest value of cell 2" 22 (Machine.read m ~pe:0 "A" [| 2 |]);
        Machine.restore m c0;
        check_int "older checkpoint, older values" 1
          (Machine.read m ~pe:0 "A" [| 1 |]);
        check_int "older checkpoint, older values (2)" 2
          (Machine.read m ~pe:0 "A" [| 2 |]));
    Alcotest.test_case "restore never replays writes from later generations"
      `Quick (fun () ->
        let m = Machine.create (Topology.linear 1) Cost.transputer in
        Machine.store m ~pe:0 "A" [| 0 |] 0;
        ignore (Machine.checkpoint m);
        Machine.write m ~pe:0 "A" [| 0 |] 1;
        let mid = Machine.checkpoint m in
        (* These writes postdate [mid]; a restore that replays the whole
           chain instead of stopping at [mid]'s generation would leak
           them back in. *)
        Machine.write m ~pe:0 "A" [| 0 |] 2;
        ignore (Machine.checkpoint m);
        Machine.write m ~pe:0 "A" [| 0 |] 3;
        Machine.restore m mid;
        check_int "rolled back to mid, not to head" 1
          (Machine.read m ~pe:0 "A" [| 0 |]));
    Alcotest.test_case
      "deltas survive sparse->flat compact and flat->sparse demotion" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 1) Cost.transputer in
        let aid = Machine.array_id m "A" in
        for i = 0 to 5 do
          for j = 0 to 5 do
            Machine.store m ~pe:0 "A" [| i; j |] ((10 * i) + j)
          done
        done;
        let c0 = Machine.checkpoint m in
        (* Generation boundary 1: promotion to a flat buffer. *)
        Machine.compact m;
        check_bool "promoted" true (Machine.flat_view m ~pe:0 aid <> None);
        Machine.write m ~pe:0 "A" [| 1; 1 |] 111;
        (* Generation boundary 2: an out-of-box store demotes the flat
           chunk back to sparse; the dirty in-box write must not be
           lost in the move. *)
        Machine.store m ~pe:0 "A" [| 50; 50 |] 5050;
        check_bool "demoted" true (Machine.flat_view m ~pe:0 aid = None);
        let c1 = Machine.checkpoint m in
        check_int "two writes across both boundaries" 2
          (Machine.checkpoint_words c1);
        Machine.write m ~pe:0 "A" [| 1; 1 |] 0;
        Machine.write m ~pe:0 "A" [| 50; 50 |] 0;
        Machine.restore m c1;
        check_int "in-box write survives" 111
          (Machine.read m ~pe:0 "A" [| 1; 1 |]);
        check_int "out-of-box write survives" 5050
          (Machine.read m ~pe:0 "A" [| 50; 50 |]);
        check_int "untouched cell survives" 23
          (Machine.read m ~pe:0 "A" [| 2; 3 |]);
        Machine.restore m c0;
        check_int "pre-compact checkpoint still replays" 11
          (Machine.read m ~pe:0 "A" [| 1; 1 |]);
        check_bool "and drops the escape" false
          (Machine.holds m ~pe:0 "A" [| 50; 50 |]));
    Alcotest.test_case "restore re-normalizes the representation" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 1) Cost.transputer in
        let aid = Machine.array_id m "A" in
        for i = 0 to 5 do
          for j = 0 to 5 do
            Machine.store m ~pe:0 "A" [| i; j |] ((10 * i) + j)
          done
        done;
        (* Checkpoint while sparse, compact afterwards: the snapshot
           holds the pre-promotion representation. *)
        let ckpt = Machine.checkpoint ~mode:`Full m in
        Machine.compact m;
        check_bool "compacted to flat" true (Machine.flat_view m ~pe:0 aid <> None);
        Machine.restore m ckpt;
        (* Before the fix this resurrected the sparse table, silently
           demoting the store behind flat-view consumers. *)
        check_bool "restore re-promotes a dense chunk" true
          (Machine.flat_view m ~pe:0 aid <> None);
        check_int "values intact" 45 (Machine.read m ~pe:0 "A" [| 4; 5 |]));
  ]

(* {2 Bulk chunk sends}

   [host_send_chunk] against [host_send] on the same elements: the two
   must be indistinguishable — charge, trace, resident data, the journal
   a following delta checkpoint captures, and every fault path. *)

let chunk_of elements =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (el, v) -> Hashtbl.replace tbl (Machine.pack_coords el) v)
    elements;
  Machine.sparse_chunk tbl

(* The same elements as a flat chunk over their [lo, hi] box. *)
let flat_of ~lo ~hi elements =
  let extents = Array.map2 (fun l h -> h - l + 1) lo hi in
  let volume = Array.fold_left ( * ) 1 extents in
  let data = Array.make volume 0 and present = Bytes.make volume '\000' in
  List.iter
    (fun (el, v) ->
      let off = ref 0 in
      Array.iteri (fun p x -> off := (!off * extents.(p)) + (x - lo.(p))) el;
      data.(!off) <- v;
      Bytes.set present !off '\001')
    elements;
  Machine.flat_chunk ~lo ~extents ~data ~present
    ~count:(List.length elements)

let same_machines what m1 m2 =
  let tag s = what ^ ": " ^ s in
  check_int (tag "messages") (Machine.message_count m1)
    (Machine.message_count m2);
  check_int (tag "volume") (Machine.message_volume m1)
    (Machine.message_volume m2);
  check_bool (tag "distribution time bit-identical") true
    (Machine.distribution_time m1 = Machine.distribution_time m2);
  check_bool (tag "trace") true (Machine.trace m1 = Machine.trace m2);
  check_int (tag "retries") (Machine.retries m1) (Machine.retries m2);
  check_int (tag "dropped") (Machine.dropped_messages m1)
    (Machine.dropped_messages m2);
  check_int (tag "corrupted") (Machine.corrupted_messages m1)
    (Machine.corrupted_messages m2);
  for pe = 0 to Topology.size (Machine.topology m1) - 1 do
    check_bool (tag (Printf.sprintf "PE%d memory" pe)) true
      (Machine.local_elements m1 ~pe = Machine.local_elements m2 ~pe)
  done

let grid n = List.init n (fun i -> ([| i / 8; i mod 8 |], 100 + i))

let bulk_cases =
  [
    Alcotest.test_case "bulk send into a fresh chunk equals host_send" `Quick
      (fun () ->
        let elements = grid 40 in
        List.iter
          (fun (shape, chunk) ->
            let m1 = Machine.create (Topology.linear 4) Cost.transputer in
            let m2 = Machine.create (Topology.linear 4) Cost.transputer in
            (* An empty base first, so the next capture is a delta. *)
            ignore (Machine.checkpoint m1);
            ignore (Machine.checkpoint m2);
            Machine.host_send m1 ~pe:3 "A" elements;
            Machine.host_send_chunk m2 ~pe:3 (Machine.array_id m2 "A") chunk;
            same_machines shape m1 m2;
            check_int (shape ^ ": delta checkpoint words")
              (Machine.checkpoint_words (Machine.checkpoint m1))
              (Machine.checkpoint_words (Machine.checkpoint m2)))
          [
            ("sparse", chunk_of elements);
            ("flat", flat_of ~lo:[| 0; 0 |] ~hi:[| 4; 7 |] elements);
          ]);
    Alcotest.test_case "bulk merge into an existing chunk equals host_send"
      `Quick (fun () ->
        let first = grid 40 in
        (* Overlaps the resident chunk and spills outside its box. *)
        let second =
          List.init 12 (fun i -> ([| 3 + (i / 4); i mod 4 |], 500 + i))
        in
        List.iter
          (fun compact ->
            let m1 = Machine.create (Topology.linear 4) Cost.transputer in
            let m2 = Machine.create (Topology.linear 4) Cost.transputer in
            List.iter
              (fun m ->
                Machine.host_send m ~pe:2 "A" first;
                if compact then Machine.compact m;
                ignore (Machine.checkpoint m))
              [ m1; m2 ];
            Machine.host_send m1 ~pe:2 "A" second;
            Machine.host_send_chunk m2 ~pe:2 (Machine.array_id m2 "A")
              (chunk_of second);
            let what = if compact then "into flat" else "into sparse" in
            same_machines what m1 m2;
            check_int (what ^ ": delta checkpoint words")
              (Machine.checkpoint_words (Machine.checkpoint m1))
              (Machine.checkpoint_words (Machine.checkpoint m2)))
          [ false; true ]);
    Alcotest.test_case "bulk send to a PE dead at distribution" `Quick
      (fun () ->
        let machine () =
          Machine.create
            ~faults:
              (Cf_fault.Fault.make ~procs:4
                 { Cf_fault.Fault.none with kills = [ (2, 0) ] })
            (Topology.linear 4) Cost.transputer
        in
        let m1 = machine () and m2 = machine () in
        let elements = grid 20 in
        let crashed f =
          match f () with
          | () -> Alcotest.fail "expected Pe_crashed"
          | exception Machine.Pe_crashed { pe } -> check_int "dead pe" 2 pe
        in
        crashed (fun () -> Machine.host_send m1 ~pe:2 "A" elements);
        let chunk = chunk_of elements in
        crashed (fun () ->
            Machine.host_send_chunk m2 ~pe:2 (Machine.array_id m2 "A") chunk);
        same_machines "dead PE" m1 m2;
        check_int "nothing stored" 0 (Machine.memory_words m2 ~pe:2);
        (* The caller still owns the chunk and can place it elsewhere. *)
        Machine.host_send m1 ~pe:1 "A" elements;
        Machine.host_send_chunk m2 ~pe:1 (Machine.array_id m2 "A") chunk;
        same_machines "resent to a survivor" m1 m2);
    Alcotest.test_case "bulk sends over a lossy link draw like host_send"
      `Quick (fun () ->
        let machine () =
          Machine.create
            ~faults:
              (Cf_fault.Fault.make ~procs:4
                 {
                   Cf_fault.Fault.none with
                   seed = 9;
                   drop_rate = 0.4;
                   corrupt_rate = 0.2;
                   max_attempts = 8;
                 })
            (Topology.linear 4) Cost.transputer
        in
        let m1 = machine () and m2 = machine () in
        for i = 0 to 29 do
          let name = Printf.sprintf "A%d" i in
          let elements = grid (1 + (i mod 5)) in
          Machine.host_send m1 ~pe:(i mod 4) name elements;
          Machine.host_send_chunk m2 ~pe:(i mod 4) (Machine.array_id m2 name)
            (chunk_of elements)
        done;
        check_bool "retries happened" true (Machine.retries m2 > 0);
        same_machines "lossy link" m1 m2);
    Alcotest.test_case "block copies are numbered and named on demand" `Quick
      (fun () ->
        let m = Machine.create (Topology.linear 2) Cost.transputer in
        check_bool "no base, no copy" true (Machine.find_array_id m "A#12" = None);
        let a = Machine.array_id m "A" in
        let c = Machine.copy_id m a 12 in
        check_bool "a copy is not its base" true (c <> a);
        check_bool "blocks differ" true (Machine.copy_id m a 13 <> c);
        check_string "array_name" "A#12" (Machine.array_name m c);
        check_bool "find_array_id" true (Machine.find_array_id m "A#12" = Some c);
        check_int "array_id" c (Machine.array_id m "A#12");
        List.iter
          (fun name ->
            check_bool (name ^ " is no copy of A") true
              (Machine.find_array_id m name = None);
            let id = Machine.array_id m name in
            check_string (name ^ " interns as itself") name
              (Machine.array_name m id);
            Alcotest.check_raises (name ^ " has no copies")
              (Invalid_argument "Machine.copy_id: not a plain array id")
              (fun () -> ignore (Machine.copy_id m id 1)))
          [ "A#0"; "A#01"; "A#"; "#3"; "A#x" ];
        Alcotest.check_raises "no copy of a copy"
          (Invalid_argument "Machine.copy_id: not a plain array id") (fun () ->
            ignore (Machine.copy_id m c 2));
        Alcotest.check_raises "blocks count from 1"
          (Invalid_argument "Machine.copy_id: block out of range") (fun () ->
            ignore (Machine.copy_id m a 0));
        let seven = Machine.copy_id m a 7 in
        Machine.host_send_chunk m ~pe:1 seven (chunk_of [ ([| 1 |], 5) ]);
        (match Machine.trace m with
        | [ Machine.Send { pe = 1; array = "A#7"; size = 1 } ] -> ()
        | evs ->
          Alcotest.failf "unexpected trace: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Machine.pp_event) evs)));
        check_int "read by name" 5 (Machine.read m ~pe:1 "A#7" [| 1 |]);
        check_bool "local_elements names the copy" true
          (Machine.local_elements m ~pe:1 = [ ("A#7", [| 1 |], 5) ]));
    Alcotest.test_case "flat_chunk demotes what compact would not promote"
      `Quick (fun () ->
        let m = Machine.create (Topology.linear 1) Cost.transputer in
        (* Four elements at the corners of a 64x64 box: sparse. *)
        let corners =
          [ ([| 0; 0 |], 1); ([| 0; 63 |], 2); ([| 63; 0 |], 3); ([| 63; 63 |], 4) ]
        in
        let aid = Machine.array_id m "A" in
        Machine.install_chunk m ~pe:0 aid
          (flat_of ~lo:[| 0; 0 |] ~hi:[| 63; 63 |] corners);
        check_bool "demoted to sparse" true (Machine.flat_view m ~pe:0 aid = None);
        check_int "all four resident" 4 (Machine.memory_words m ~pe:0);
        let dense = grid 40 in
        let bid = Machine.array_id m "B" in
        Machine.install_chunk m ~pe:0 bid (flat_of ~lo:[| 0; 0 |] ~hi:[| 4; 7 |] dense);
        check_bool "dense stays flat" true (Machine.flat_view m ~pe:0 bid <> None);
        check_bool "policy agrees" true
          (Machine.flat_worthy ~volume:40 ~count:40
          && not (Machine.flat_worthy ~volume:4096 ~count:4));
        (* No element floor: a one-element copy is flat. *)
        check_bool "one element is flat" true
          (Machine.flat_worthy ~volume:1 ~count:1);
        let one = Machine.array_id m "C" in
        Machine.install_chunk m ~pe:0 one
          (flat_of ~lo:[| 5; 5 |] ~hi:[| 5; 5 |] [ ([| 5; 5 |], 9) ]);
        check_bool "a one-element chunk stays flat" true
          (Machine.flat_view m ~pe:0 one <> None);
        (* E19's pre-placement: 3 columns of a 48-row matrix in a 48x33
           box fill 144 of 1584 cells, over the 1152-cell limit; 2
           columns of a 32-row one fill 64 of 544, under the 1024-cell
           floor. *)
        check_bool "matmul 48 columns stay sparse" false
          (Machine.flat_worthy ~volume:1584 ~count:144);
        check_bool "matmul 32 columns are flat" true
          (Machine.flat_worthy ~volume:544 ~count:64));
  ]

let suites =
  [
    ("topology", topology_cases);
    ("cost", cost_cases);
    ("machine", machine_cases);
    ("trace", trace_cases);
    ("memory", memory_cases);
    ("memory.checkpoint", checkpoint_cases);
    ("memory.bulk", bulk_cases);
  ]
