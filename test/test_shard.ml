(* Tests for the set-sharded parallel stack-distance sweeps and the
   incremental sliding-window MRC engine: byte-identical jobs-invariance of
   the exact and sampled parallel engines (pinned on a real workload and
   property-tested over random traces and geometries), the window-semantics
   properties of [Stack_dist.Windowed], every [Invalid_argument] rejection
   of the new knobs, and the two new experiment modules. *)

module Access = Memtrace.Access
module Packed = Memtrace.Packed
module Stack_dist = Cache.Stack_dist
module Sampled = Cache.Stack_dist.Sampled
module Windowed = Cache.Stack_dist.Windowed
module Experiments = Colcache.Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* A real workload trace, heavy enough to cross chunk boundaries in the
   sharded streaming loop many times over. *)
let lz77_packed =
  lazy (Packed.of_trace (Workloads.Lz77.trace ~seed:3 ~input_len:4096 () ~base:0))

let engines_agree label a b =
  check_int (label ^ ": accesses") (Stack_dist.accesses a)
    (Stack_dist.accesses b);
  check_int (label ^ ": cold misses") (Stack_dist.cold_misses a)
    (Stack_dist.cold_misses b);
  check_int (label ^ ": overflows") (Stack_dist.overflows a)
    (Stack_dist.overflows b);
  check_int (label ^ ": distinct lines") (Stack_dist.distinct_lines a)
    (Stack_dist.distinct_lines b);
  check_bool (label ^ ": histogram") true
    (Stack_dist.histogram a = Stack_dist.histogram b);
  check_bool (label ^ ": miss curve") true
    (Stack_dist.miss_curve a = Stack_dist.miss_curve b);
  for ways = 1 to Stack_dist.max_ways a do
    check_int
      (Printf.sprintf "%s: misses@%d" label ways)
      (Stack_dist.misses a ~ways) (Stack_dist.misses b ~ways);
    check_int
      (Printf.sprintf "%s: evictions@%d" label ways)
      (Stack_dist.evictions a ~ways)
      (Stack_dist.evictions b ~ways);
    check_int
      (Printf.sprintf "%s: writebacks@%d" label ways)
      (Stack_dist.writebacks a ~ways)
      (Stack_dist.writebacks b ~ways)
  done

(* --- exact engine: jobs-invariance, pinned --- *)

let test_parallel_matches_serial () =
  let packed = Lazy.force lz77_packed in
  let serial = Stack_dist.create ~line_size:16 ~sets:64 ~max_ways:8 () in
  Stack_dist.access_packed serial packed;
  List.iter
    (fun jobs ->
      let per_shard = Array.make jobs 0 in
      let merged =
        Stack_dist.of_packed_parallel
          ~on_shard:(fun ~shard ~accesses -> per_shard.(shard) <- accesses)
          ~jobs ~line_size:16 ~sets:64 ~max_ways:8 packed
      in
      engines_agree (Printf.sprintf "jobs=%d" jobs) serial merged;
      check_int
        (Printf.sprintf "jobs=%d: shard accesses sum to the total" jobs)
        (Stack_dist.accesses serial)
        (Array.fold_left ( + ) 0 per_shard);
      if jobs > 1 then
        Array.iteri
          (fun s n ->
            check_bool
              (Printf.sprintf "jobs=%d: shard %d strictly partial" jobs s)
              true
              (n < Stack_dist.accesses serial))
          per_shard)
    [ 1; 2; 3; 4; 8 ]

let test_parallel_with_translate () =
  (* a page-granular frame placement must shard identically: translation
     happens once, before the set filter, on both paths *)
  let translate a = a lxor 0x4000 in
  let packed = Lazy.force lz77_packed in
  let serial =
    Stack_dist.create ~translate ~line_size:16 ~sets:32 ~max_ways:4 ()
  in
  Stack_dist.access_packed serial packed;
  let merged =
    Stack_dist.of_packed_parallel ~translate ~jobs:4 ~line_size:16 ~sets:32
      ~max_ways:4 packed
  in
  engines_agree "translated jobs=4" serial merged

(* --- sampled engine: jobs-invariance, pinned --- *)

let test_sampled_parallel_matches_serial () =
  let packed = Lazy.force lz77_packed in
  let mk () =
    Sampled.create ~seed:7 ~rate:0.4 ~line_size:16 ~sets:64 ~max_ways:8 ()
  in
  let serial = mk () in
  Sampled.access_packed serial packed;
  List.iter
    (fun jobs ->
      let merged =
        Sampled.of_packed_parallel ~seed:7 ~jobs ~rate:0.4 ~line_size:16
          ~sets:64 ~max_ways:8 packed
      in
      let label = Printf.sprintf "sampled jobs=%d" jobs in
      check_int (label ^ ": selected sets") (Sampled.selected_sets serial)
        (Sampled.selected_sets merged);
      check_int (label ^ ": accesses offered") (Sampled.accesses serial)
        (Sampled.accesses merged);
      check_int (label ^ ": sampled accesses")
        (Sampled.sampled_accesses serial)
        (Sampled.sampled_accesses merged);
      check_int
        (label ^ ": distinct sampled lines")
        (Sampled.distinct_sampled_lines serial)
        (Sampled.distinct_sampled_lines merged);
      check_bool (label ^ ": raw miss curve") true
        (Sampled.raw_miss_curve serial = Sampled.raw_miss_curve merged);
      check_bool (label ^ ": mrc_est") true
        (Sampled.mrc_est serial = Sampled.mrc_est merged))
    [ 1; 2; 4 ]

(* --- property: jobs-invariance over random traces and geometries --- *)

let qcheck_jobs_invariance =
  QCheck.Test.make ~name:"sharded merge is byte-identical for any jobs"
    ~count:100
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 200) (int_bound 0xFFFF))
        (int_bound 2)
        (int_bound 1000))
    (fun (addrs, sets_pow, jobs_seed) ->
      QCheck.assume (addrs <> []);
      let sets = 4 lsl sets_pow (* 4, 8 or 16 *) in
      let jobs = 1 + (jobs_seed mod sets) in
      let trace =
        Memtrace.Trace.of_list
          (List.mapi
             (fun i a ->
               let kind = if i mod 3 = 0 then Access.Write else Access.Read in
               Access.make ~kind (a * 4))
             addrs)
      in
      let packed = Packed.of_trace trace in
      let serial = Stack_dist.create ~line_size:8 ~sets ~max_ways:4 () in
      Stack_dist.access_packed serial packed;
      let merged =
        Stack_dist.of_packed_parallel ~jobs ~line_size:8 ~sets ~max_ways:4
          packed
      in
      Stack_dist.miss_curve serial = Stack_dist.miss_curve merged
      && Stack_dist.histogram serial = Stack_dist.histogram merged
      && Stack_dist.cold_misses serial = Stack_dist.cold_misses merged
      && List.for_all
           (fun ways ->
             Stack_dist.evictions serial ~ways
             = Stack_dist.evictions merged ~ways
             && Stack_dist.writebacks serial ~ways
                = Stack_dist.writebacks merged ~ways)
           [ 1; 2; 3; 4 ])

(* --- windowed engine: window semantics --- *)

(* While the window covers the whole trace, nothing has retired and every
   reading must equal the one-shot engine's exactly. *)
let qcheck_window_covers_trace =
  QCheck.Test.make ~name:"window >= trace length equals the one-shot engine"
    ~count:100
    QCheck.(
      pair (list_of_size Gen.(int_range 1 150) (int_bound 0xFFF)) (int_bound 3))
    (fun (addrs, epochs_pow) ->
      QCheck.assume (addrs <> []);
      let epochs = 1 lsl epochs_pow in
      let n = List.length addrs in
      (* the smallest multiple of [epochs] at or above [n] *)
      let window = (n + epochs - 1) / epochs * epochs in
      let one_shot = Stack_dist.create ~line_size:8 ~sets:8 ~max_ways:4 () in
      let windowed =
        Windowed.create ~window ~epochs ~line_size:8 ~sets:8 ~max_ways:4 ()
      in
      List.iteri
        (fun i a ->
          let kind = if i mod 4 = 0 then Access.Write else Access.Read in
          Stack_dist.access one_shot ~kind (a * 4);
          Windowed.observe windowed ~kind (a * 4))
        addrs;
      Windowed.retired_epochs windowed = 0
      && Windowed.accesses_in_window windowed = Stack_dist.accesses one_shot
      && Windowed.miss_curve_now windowed = Stack_dist.miss_curve one_shot
      && Windowed.mrc_now windowed = Stack_dist.mrc one_shot)

(* Once the stream outruns the window, retirement must actually drop counts
   and never resurrect them: the readings always cover exactly the live
   epochs plus the partial one, bounded by [window + epoch_length - 1]. *)
let qcheck_window_retirement =
  QCheck.Test.make ~name:"retirement drops whole epochs and never resurrects"
    ~count:100
    QCheck.(
      pair (list_of_size Gen.(int_range 50 400) (int_bound 0xFFF)) (int_bound 2))
    (fun (addrs, epochs_pow) ->
      QCheck.assume (List.length addrs >= 50);
      let epochs = 2 lsl epochs_pow (* 2, 4 or 8 *) in
      let epoch_len = 4 in
      let window = epochs * epoch_len in
      let windowed =
        Windowed.create ~window ~epochs ~line_size:8 ~sets:4 ~max_ways:2 ()
      in
      let total = ref 0 in
      let ok = ref true in
      List.iter
        (fun a ->
          Windowed.observe windowed ~kind:Access.Read (a * 4);
          incr total;
          let covered = Windowed.accesses_in_window windowed in
          let retired = Windowed.retired_epochs windowed in
          (* conservation: every access is either retired or still covered *)
          ok :=
            !ok
            && covered + (retired * epoch_len) = !total
            && covered <= window + epoch_len - 1
            (* a 0-way cache misses everything in the window, nothing more:
               a retired epoch's counts must not leak back in *)
            && (Windowed.miss_curve_now windowed).(0) = covered)
        addrs;
      !ok
      && Windowed.retired_epochs windowed
         = max 0 ((List.length addrs / epoch_len) - epochs))

(* --- rejection of every new knob, at the library level --- *)

let test_stack_dist_rejections () =
  let packed = Lazy.force lz77_packed in
  check_bool "jobs = 0" true
    (raises (fun () ->
         Stack_dist.of_packed_parallel ~jobs:0 ~line_size:16 ~sets:64
           ~max_ways:8 packed));
  check_bool "jobs > sets" true
    (raises (fun () ->
         Stack_dist.of_packed_parallel ~jobs:65 ~line_size:16 ~sets:64
           ~max_ways:8 packed));
  let mk () = Stack_dist.create ~line_size:16 ~sets:8 ~max_ways:2 () in
  check_bool "sharded feed: shard out of range" true
    (raises (fun () ->
         Stack_dist.access_packed_sharded (mk ()) ~shards:2 ~shard:2 packed));
  check_bool "sharded feed: shards > sets" true
    (raises (fun () ->
         Stack_dist.access_packed_sharded (mk ()) ~shards:9 ~shard:0 packed));
  check_bool "merge: geometry mismatch" true
    (raises (fun () ->
         let other = Stack_dist.create ~line_size:16 ~sets:4 ~max_ways:2 () in
         Stack_dist.merge_into (mk ()) other));
  check_bool "merge: overlapping set ownership" true
    (raises (fun () ->
         let a = mk () and b = mk () in
         Stack_dist.access a ~kind:Access.Read 0;
         Stack_dist.access b ~kind:Access.Read 0;
         Stack_dist.merge_into a b))

let test_sampled_rejections () =
  let packed = Lazy.force lz77_packed in
  check_bool "sampled parallel: jobs = 0" true
    (raises (fun () ->
         Sampled.of_packed_parallel ~jobs:0 ~rate:0.5 ~line_size:16 ~sets:64
           ~max_ways:8 packed));
  check_bool "sampled sharded feed rejects a budget engine" true
    (raises (fun () ->
         let s =
           Sampled.create ~budget:64 ~rate:0.5 ~line_size:16 ~sets:64
             ~max_ways:8 ()
         in
         Sampled.access_packed_sharded s ~shards:2 ~shard:0 packed))

let test_windowed_rejections () =
  let mk ~window ~epochs () =
    Windowed.create ~window ~epochs ~line_size:16 ~sets:8 ~max_ways:2 ()
  in
  check_bool "window = 0" true (raises (mk ~window:0 ~epochs:1));
  check_bool "epochs = 0" true (raises (mk ~window:8 ~epochs:0));
  check_bool "window not a multiple of epochs" true
    (raises (mk ~window:10 ~epochs:4))

(* --- the incremental allocator wrapper --- *)

let test_incremental_basics () =
  let module Inc = Layout.Mrc_alloc.Incremental in
  let inc =
    Inc.create ~window:64 ~epochs:4 ~line_size:16 ~sets:8 ~max_ways:4
      ~columns:4 [ "a"; "b" ]
  in
  (* drive tenant "a" over a 3-line working set, "b" over 1 line: the
     windowed curves must steer the greedy split toward "a" *)
  for i = 0 to 63 do
    Inc.observe inc ~tenant:"a" ~kind:Access.Read (16 * (i mod 3));
    Inc.observe inc ~tenant:"b" ~kind:Access.Read 0x8000
  done;
  check_int "a's window covers its accesses" 64
    (Inc.accesses_in_window inc ~tenant:"a");
  let alloc = Inc.allocate_now inc in
  check_int "whole budget handed out" 4
    (List.fold_left (fun acc (_, c) -> acc + c) 0 alloc);
  check_bool "busy tenant gets more columns" true
    (List.assoc "a" alloc > List.assoc "b" alloc);
  check_bool "unknown tenant" true
    (raises (fun () -> Inc.observe inc ~tenant:"zzz" ~kind:Access.Read 0));
  check_bool "empty tenant list" true
    (raises (fun () ->
         Inc.create ~window:64 ~epochs:4 ~line_size:16 ~sets:8 ~max_ways:4
           ~columns:4 []));
  check_bool "duplicate tenants" true
    (raises (fun () ->
         Inc.create ~window:64 ~epochs:4 ~line_size:16 ~sets:8 ~max_ways:4
           ~columns:4 [ "a"; "a" ]));
  check_bool "more tenants than columns" true
    (raises (fun () ->
         Inc.create ~window:64 ~epochs:4 ~line_size:16 ~sets:8 ~max_ways:4
           ~columns:1 [ "a"; "b" ]))

(* A phase-swap trace over two tenants: "a" roams 48 lines while "b" sits
   on 3, then they swap, then swap back, with epochs retiring throughout.
   Each checkpoint's windowed curves and allocation are pinned to the
   readings of an engine that kept the cold-line memory: the windowed
   engine reads stack misses only, so doing without the memory changes
   nothing. *)
let phase_swap_readings () =
  let module Inc = Layout.Mrc_alloc.Incremental in
  let inc =
    Inc.create ~window:512 ~epochs:4 ~line_size:16 ~sets:8 ~max_ways:4
      ~columns:4 [ "a"; "b" ]
  in
  let rng = Workloads.Prng.create ~seed:15 in
  let feed tenant ~base ~lines =
    let kind =
      if Workloads.Prng.chance rng 0.3 then Access.Write else Access.Read
    in
    Inc.observe inc ~tenant ~kind (base + (16 * Workloads.Prng.int rng lines))
  in
  let readings = ref [] in
  List.iter
    (fun (a_lines, b_lines) ->
      for i = 1 to 768 do
        feed "a" ~base:0 ~lines:a_lines;
        feed "b" ~base:0x10000 ~lines:b_lines;
        if i mod 384 = 0 then
          readings :=
            ( List.map
                (fun (name, c) -> (name, Array.map int_of_float c))
                (Inc.curves_now inc),
              Inc.allocate_now inc )
            :: !readings
      done)
    [ (48, 3); (3, 48); (48, 3) ];
  List.rev !readings

let test_windowed_phase_swap_pinned () =
  let expected =
    [
      ( [ ("a", [| 384; 331; 259; 193; 139 |]); ("b", [| 384; 3; 3; 3; 3 |]) ],
        [ ("a", 3); ("b", 1) ] );
      ( [ ("a", [| 512; 430; 331; 246; 162 |]); ("b", [| 512; 0; 0; 0; 0 |]) ],
        [ ("a", 3); ("b", 1) ] );
      ( [
          ("a", [| 512; 109; 86; 71; 46 |]); ("b", [| 512; 328; 270; 214; 158 |]);
        ],
        [ ("a", 1); ("b", 3) ] );
      ( [ ("a", [| 512; 0; 0; 0; 0 |]); ("b", [| 512; 437; 381; 285; 186 |]) ],
        [ ("a", 1); ("b", 3) ] );
      ( [
          ("a", [| 512; 319; 256; 188; 121 |]); ("b", [| 512; 104; 90; 68; 47 |]);
        ],
        [ ("a", 3); ("b", 1) ] );
      ( [ ("a", [| 512; 424; 327; 248; 166 |]); ("b", [| 512; 0; 0; 0; 0 |]) ],
        [ ("a", 3); ("b", 1) ] );
    ]
  in
  List.iteri
    (fun k (got, want) ->
      check_bool (Printf.sprintf "checkpoint %d" k) true (got = want))
    (List.combine (phase_swap_readings ()) expected)

(* --- the experiment modules the docs cite --- *)

let test_experiment_mrc_scaling () =
  let r = Experiments.Mrc_scaling.run ~jobs_list:[ 1; 2; 4 ] () in
  check_int "three rows" 3 (List.length r.Experiments.Mrc_scaling.rows);
  List.iter
    (fun row ->
      check_bool
        (Printf.sprintf "jobs=%d merged identical"
           row.Experiments.Mrc_scaling.jobs)
        true row.Experiments.Mrc_scaling.identical;
      check_int
        (Printf.sprintf "jobs=%d shard accesses sum to the total"
           row.Experiments.Mrc_scaling.jobs)
        r.Experiments.Mrc_scaling.total_accesses
        (List.fold_left ( + ) 0 row.Experiments.Mrc_scaling.shard_accesses))
    r.Experiments.Mrc_scaling.rows

let test_experiment_windowed_mrc () =
  let r = Experiments.Windowed_mrc.run () in
  check_bool "windowed tracking beats the static split" true
    r.Experiments.Windowed_mrc.windowed_wins;
  check_bool "misses actually dropped" true
    (r.Experiments.Windowed_mrc.windowed_total
    < r.Experiments.Windowed_mrc.static_total);
  List.iter
    (fun (tenant, retired) ->
      check_bool (tenant ^ " retired epochs") true (retired > 0))
    r.Experiments.Windowed_mrc.retired

let suites =
  [
    ( "shard.parallel",
      [
        Alcotest.test_case "exact parallel = serial (pinned)" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "translated parallel = serial" `Quick
          test_parallel_with_translate;
        Alcotest.test_case "sampled parallel = serial (pinned)" `Quick
          test_sampled_parallel_matches_serial;
        QCheck_alcotest.to_alcotest qcheck_jobs_invariance;
      ] );
    ( "shard.windowed",
      [
        QCheck_alcotest.to_alcotest qcheck_window_covers_trace;
        QCheck_alcotest.to_alcotest qcheck_window_retirement;
      ] );
    ( "shard.rejections",
      [
        Alcotest.test_case "stack_dist knobs" `Quick test_stack_dist_rejections;
        Alcotest.test_case "sampled knobs" `Quick test_sampled_rejections;
        Alcotest.test_case "windowed knobs" `Quick test_windowed_rejections;
      ] );
    ( "shard.incremental",
      [
        Alcotest.test_case "incremental allocator basics" `Quick
          test_incremental_basics;
        Alcotest.test_case "windowed phase swap (pinned)" `Quick
          test_windowed_phase_swap_pinned;
        Alcotest.test_case "mrc scaling experiment" `Quick
          test_experiment_mrc_scaling;
        Alcotest.test_case "windowed mrc experiment" `Quick
          test_experiment_windowed_mrc;
      ] );
  ]
