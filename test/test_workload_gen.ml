(* Tests for the traffic-shaped workload generators and per-request latency
   accounting: generator determinism and containment, the Zipf
   rank-frequency slope, hot-set drift, exact percentile arithmetic, and —
   the load-bearing property — byte-identical per-request latency
   distributions between the closed-form sweep evaluators and machine
   replay. *)

module Access = Memtrace.Access
module Packed = Memtrace.Packed
module Gen = Workloads.Gen
module Latency = Machine.Latency
module System = Machine.System
module Run_stats = Machine.Run_stats
module Sweep = Colcache.Sweep
module Bitmask = Cache.Bitmask

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let page_size = 256
let tlb_entries = 32

let cache_cfg ?(ways = 8) ?(size_bytes = 2048) () =
  Cache.Sassoc.config ~line_size:16 ~size_bytes ~ways ()

let fresh_system ?ways ?size_bytes () =
  System.create (System.config (cache_cfg ?ways ?size_bytes ()))

(* --- generator determinism / containment (qcheck) --- *)

let arb_stream =
  let open QCheck.Gen in
  let base =
    oneof
      [
        map (fun items -> Gen.Uniform { items = items + 1 }) (int_bound 255);
        map (fun items -> Gen.Scan { items = items + 1 }) (int_bound 255);
        map2
          (fun items theta ->
            Gen.Zipf { items = items + 1; theta = float_of_int theta /. 10. })
          (int_bound 255) (int_bound 15);
        map2
          (fun items hot ->
            let items = items + 2 in
            Gen.Hot_set
              {
                items;
                hot_items = 1 + (hot mod items);
                hot_prob = 0.9;
                drift_every = 50;
              })
          (int_bound 254) (int_bound 63);
      ]
  in
  let stream =
    oneof
      [
        base;
        map
          (fun ss -> Gen.Phased (List.map (fun s -> (20, s)) ss))
          (list_size (int_range 1 3) base);
      ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Gen.pp_stream) stream

let prop_deterministic =
  QCheck.Test.make ~name:"gen: equal seeds, equal traces" ~count:60
    (QCheck.pair arb_stream QCheck.small_nat) (fun (stream, seed) ->
      let t1 = Gen.emit ~seed ~n:300 ~accesses_per_request:3 stream in
      let t2 = Gen.emit ~seed ~n:300 ~accesses_per_request:3 stream in
      Packed.equal t1.Gen.packed t2.Gen.packed
      && t1.Gen.requests = t2.Gen.requests
      && t1.Gen.base = t2.Gen.base
      && t1.Gen.limit = t2.Gen.limit)

let prop_contained =
  QCheck.Test.make ~name:"gen: addresses stay inside [base, limit)" ~count:60
    (QCheck.pair arb_stream QCheck.small_nat) (fun (stream, seed) ->
      let t = Gen.emit ~base:4096 ~stride:32 ~seed ~n:400 stream in
      Gen.out_of_range t = None)

let prop_kv_contained =
  QCheck.Test.make ~name:"gen: kv requests stay inside [base, limit)"
    ~count:30 QCheck.small_nat (fun seed ->
      let t =
        Gen.kv ~seed ~requests:100 ~keys:64 ~buckets:16 ~value_lines:4 ()
      in
      Gen.out_of_range t = None
      && Array.length t.Gen.requests = 100
      (* kv spans tile the trace: contiguous, in order *)
      && fst t.Gen.requests.(0) = 0
      && snd t.Gen.requests.(99) = Packed.length t.Gen.packed
      && Array.for_all
           (fun (start, stop) -> start < stop)
           t.Gen.requests)

let prop_perturb_escapes =
  (* the [--inject-bug gen] mutation: rank+1 without re-clamping must
     escape the declared range once the top rank is drawn — near-certain
     at this tail mass and sample count *)
  QCheck.Test.make ~name:"gen: perturbed Zipf escapes containment" ~count:30
    QCheck.small_nat (fun seed ->
      let t =
        Gen.emit ~perturb:true ~seed ~n:10_000
          (Gen.Zipf { items = 8; theta = 0.5 })
      in
      Gen.out_of_range t <> None)

(* --- Zipf rank-frequency slope --- *)

let test_zipf_slope () =
  let theta = 1.0 in
  let items = 64 in
  let n = 100_000 in
  let t = Gen.emit ~seed:7 ~n ~write_ratio:0. (Gen.Zipf { items; theta }) in
  let counts = Array.make items 0 in
  let zipf_addrs = Packed.raw_addrs t.Gen.packed in
  for i = 0 to Bigarray.Array1.dim zipf_addrs - 1 do
    let item = zipf_addrs.{i} / 16 in
    counts.(item) <- counts.(item) + 1
  done;
  (* least-squares slope of log count against log rank over the head ranks,
     which hold enough mass for a stable estimate *)
  let head = 16 in
  let xs = Array.init head (fun k -> log (float_of_int (k + 1))) in
  let ys = Array.init head (fun k -> log (float_of_int counts.(k))) in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int head in
  let mx = mean xs and my = mean ys in
  let num = ref 0. and den = ref 0. in
  for k = 0 to head - 1 do
    num := !num +. ((xs.(k) -. mx) *. (ys.(k) -. my));
    den := !den +. ((xs.(k) -. mx) *. (xs.(k) -. mx))
  done;
  let slope = !num /. !den in
  check_bool
    (Printf.sprintf "rank-frequency slope %.3f within 0.1 of -%.1f" slope
       theta)
    true
    (Float.abs (slope +. theta) < 0.1)

let test_hot_set_drift_shifts_mode () =
  let t =
    Gen.emit ~seed:11 ~n:2000 ~write_ratio:0.
      (Gen.Hot_set
         { items = 1024; hot_items = 32; hot_prob = 0.9; drift_every = 1000 })
  in
  let addrs = Packed.raw_addrs t.Gen.packed in
  let mode lo hi =
    let counts = Hashtbl.create 64 in
    for i = lo to hi - 1 do
      let item = addrs.{i} / 16 in
      Hashtbl.replace counts item
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts item))
    done;
    Hashtbl.fold
      (fun item c (best, best_c) ->
        if c > best_c then (item, c) else (best, best_c))
      counts (-1, 0)
    |> fst
  in
  let m1 = mode 0 1000 and m2 = mode 1000 2000 in
  check_bool "first window's mode inside initial hot set" true
    (m1 >= 0 && m1 < 32);
  check_bool "post-drift mode inside shifted hot set" true
    (m2 >= 32 && m2 < 64)

(* --- latency percentile arithmetic --- *)

let test_percentiles_exact () =
  (* 1..1000: nearest rank ceil(p/100 * 1000) *)
  let d = Latency.of_samples (Array.init 1000 (fun i -> 1000 - i)) in
  check_int "count" 1000 (Latency.count d);
  check_int "p50" 500 (Latency.p50 d);
  check_int "p99" 990 (Latency.p99 d);
  check_int "p99.9" 999 (Latency.p999 d);
  check_int "p100" 1000 (Latency.percentile d 100.);
  check_int "min via p0" 1 (Latency.percentile d 0.)

let test_percentiles_small () =
  let d = Latency.of_samples [| 7 |] in
  check_int "single sample p50" 7 (Latency.p50 d);
  check_int "single sample p99.9" 7 (Latency.p999 d);
  let d = Latency.of_samples [| 3; 1; 2 |] in
  check_int "three samples p50" 2 (Latency.p50 d);
  check_int "three samples p99" 3 (Latency.p99 d)

let test_latency_merge () =
  let a = Latency.of_samples [| 1; 5; 5 |] in
  let b = Latency.of_samples [| 2; 5; 9 |] in
  let m = Latency.merge a b in
  check_int "merged count" 6 (Latency.count m);
  check_int "merged sum" 27 (Latency.sum m);
  check_int "merged max" 9 (Latency.max_value m);
  check_bool "merge commutes" true (Latency.equal m (Latency.merge b a));
  check_bool "empty is neutral" true
    (Latency.equal a (Latency.merge a Latency.empty))

let test_builder_matches_of_samples () =
  let samples = [| 9; 3; 3; 12; 1; 3; 9 |] in
  let b = Latency.Builder.create ~initial_capacity:2 () in
  Array.iter (Latency.Builder.push b) samples;
  check_bool "builder = of_samples" true
    (Latency.equal (Latency.Builder.build b) (Latency.of_samples samples))

(* --- machine-level request accounting --- *)

let test_machine_requests_pinned () =
  (* Two identical cold-miss + hit request pairs on a direct trace: request
     latencies are exactly derivable from the timing model. Page 0 TLB
     misses once on the very first access. *)
  let timing = Machine.Timing.default in
  let b = Packed.Builder.create () in
  (* request 0: two reads of the same line — cold miss then hit *)
  Packed.Builder.emit b ~gap:0 0;
  Packed.Builder.emit b ~gap:0 0;
  (* request 1: same pattern on a different line *)
  Packed.Builder.emit b ~gap:0 64;
  Packed.Builder.emit b ~gap:0 64;
  let p = Packed.Builder.build b in
  let sys = fresh_system () in
  let stats = System.run_packed_requests sys p ~requests:[| (0, 2); (2, 4) |] in
  let miss =
    timing.Machine.Timing.hit_cycles + timing.Machine.Timing.miss_penalty
  in
  let hit = timing.Machine.Timing.hit_cycles in
  let r0 = miss + timing.Machine.Timing.tlb_miss_penalty + hit in
  let r1 = miss + hit in
  let d = stats.Run_stats.requests in
  check_int "two requests" 2 (Latency.count d);
  check_int "p50 is the cheap request" r1 (Latency.p50 d);
  check_int "p99 is the TLB-missing request" r0 (Latency.p99 d);
  check_int "sum accounts every window cycle" (r0 + r1) (Latency.sum d)

let test_machine_requests_aggregate_unchanged () =
  let t = Gen.emit ~seed:3 ~n:2000 (Gen.Zipf { items = 256; theta = 0.9 }) in
  let plain = System.run_packed (fresh_system ()) t.Gen.packed in
  let with_req =
    System.run_packed_requests (fresh_system ()) t.Gen.packed
      ~requests:t.Gen.requests
  in
  check_int "cycles" plain.Run_stats.cycles with_req.Run_stats.cycles;
  check_int "instructions" plain.Run_stats.instructions
    with_req.Run_stats.instructions;
  check_int "misses" plain.Run_stats.cache.Cache.Stats.misses
    with_req.Run_stats.cache.Cache.Stats.misses;
  check_int "tlb misses" plain.Run_stats.tlb_misses
    with_req.Run_stats.tlb_misses;
  check_int "every access in a window covered" 2000
    (Latency.count with_req.Run_stats.requests);
  check_int "windows partition total cycles" plain.Run_stats.cycles
    (Latency.sum with_req.Run_stats.requests)

(* The machine's blocking and event replays and the closed-form sweep share
   one span validator; each must reject every malformed case. *)
let test_machine_requests_rejects_malformed () =
  let t = Gen.emit ~seed:3 ~n:16 (Gen.Uniform { items = 8 }) in
  let entry_points =
    [
      ( "run_packed_requests",
        fun requests ->
          ignore
            (System.run_packed_requests (fresh_system ()) t.Gen.packed
               ~requests) );
      ( "run_packed_requests_events",
        fun requests ->
          ignore
            (System.run_packed_requests_events (fresh_system ())
               ~events:Machine.Event.default_config t.Gen.packed ~requests) );
      ( "Sweep.standard",
        fun requests ->
          ignore
            (Sweep.standard ~requests ~cache:(cache_cfg ())
               ~timing:Machine.Timing.default ~page_size ~tlb_entries
               [ t.Gen.packed ]) );
    ]
  in
  List.iter
    (fun (name, run) ->
      let raises requests =
        try
          run requests;
          false
        with Invalid_argument _ -> true
      in
      check_bool (name ^ ": empty span") true (raises [| (4, 4) |]);
      check_bool (name ^ ": out of bounds") true (raises [| (10, 20) |]);
      check_bool (name ^ ": overlap") true (raises [| (0, 4); (2, 6) |]);
      check_bool (name ^ ": unsorted") true (raises [| (8, 10); (0, 2) |]))
    entry_points

(* --- sweep vs machine: byte-identical latency distributions --- *)

let check_stats_with_requests name (exact : Run_stats.t) (sweep : Run_stats.t)
    =
  check_int (name ^ " instructions") exact.instructions sweep.instructions;
  check_int (name ^ " cycles") exact.cycles sweep.cycles;
  check_int (name ^ " memory_accesses") exact.memory_accesses
    sweep.memory_accesses;
  check_int (name ^ " tlb_hits") exact.tlb_hits sweep.tlb_hits;
  check_int (name ^ " tlb_misses") exact.tlb_misses sweep.tlb_misses;
  check_int (name ^ " cache misses") exact.cache.Cache.Stats.misses
    sweep.cache.Cache.Stats.misses;
  check_int (name ^ " cache writebacks") exact.cache.Cache.Stats.writebacks
    sweep.cache.Cache.Stats.writebacks;
  check_int (name ^ " request count")
    (Latency.count exact.requests)
    (Latency.count sweep.requests);
  check_bool (name ^ " latency distributions byte-identical") true
    (Latency.equal exact.requests sweep.requests)

let streams_under_test =
  [
    ("zipf", Gen.Zipf { items = 256; theta = 0.9 });
    ("uniform", Gen.Uniform { items = 200 });
    ("scan", Gen.Scan { items = 300 });
    ( "hotset",
      Gen.Hot_set
        { items = 512; hot_items = 24; hot_prob = 0.85; drift_every = 300 } );
    ( "phased",
      Gen.Phased
        [
          (100, Gen.Zipf { items = 128; theta = 1.1 });
          (60, Gen.Scan { items = 400 });
        ] );
  ]

let test_sweep_standard_latency_exact () =
  List.iter
    (fun (name, stream) ->
      let t = Gen.emit ~seed:21 ~n:3000 ~accesses_per_request:5 stream in
      let exact =
        System.run_packed_requests (fresh_system ()) t.Gen.packed
          ~requests:t.Gen.requests
      in
      match
        Sweep.standard ~requests:t.Gen.requests ~cache:(cache_cfg ())
          ~timing:Machine.Timing.default ~page_size ~tlb_entries
          [ t.Gen.packed ]
      with
      | Some sweep -> check_stats_with_requests name exact sweep
      | None -> Alcotest.fail (name ^ ": standard sweep infeasible"))
    streams_under_test

let test_sweep_kv_latency_exact () =
  let t = Gen.kv ~seed:5 ~requests:600 ~keys:96 ~buckets:24 ~value_lines:3 () in
  let exact =
    System.run_packed_requests (fresh_system ()) t.Gen.packed
      ~requests:t.Gen.requests
  in
  match
    Sweep.standard ~requests:t.Gen.requests ~cache:(cache_cfg ())
      ~timing:Machine.Timing.default ~page_size ~tlb_entries [ t.Gen.packed ]
  with
  | Some sweep -> check_stats_with_requests "kv" exact sweep
  | None -> Alcotest.fail "kv: standard sweep infeasible"

let test_sweep_masked_latency_exact () =
  (* Two tenants in page-disjoint regions, confined to disjoint column
     groups: machine replay with retinted regions vs the closed-form masked
     evaluator, including the per-request distributions. *)
  let a = Gen.emit ~seed:31 ~n:1500 ~accesses_per_request:5 ~base:0
      (Gen.Zipf { items = 96; theta = 1.0 })
  in
  let b = Gen.emit ~seed:32 ~n:1000 ~accesses_per_request:4 ~base:65536
      (Gen.Scan { items = 512 })
  in
  let mask_a = Bitmask.range ~lo:0 ~hi:5 in
  let mask_b = Bitmask.range ~lo:6 ~hi:7 in
  let size_of (t : Gen.trace) = t.Gen.limit - t.Gen.base in
  let exact =
    let sys = fresh_system () in
    let mapping = System.mapping sys in
    List.iter
      (fun ((t : Gen.trace), mask, tint) ->
        ignore
          (Vm.Mapping.retint_region mapping ~base:t.Gen.base ~size:(size_of t)
             (Vm.Tint.make tint));
        Vm.Mapping.remap_tint mapping (Vm.Tint.make tint) mask)
      [ (a, mask_a, "a"); (b, mask_b, "b") ];
    let ra = System.run_packed_requests sys a.Gen.packed ~requests:a.Gen.requests in
    let rb = System.run_packed_requests sys b.Gen.packed ~requests:b.Gen.requests in
    Run_stats.add ra rb
  in
  let offset = Packed.length a.Gen.packed in
  let requests =
    Array.append a.Gen.requests
      (Array.map (fun (s, e) -> (s + offset, e + offset)) b.Gen.requests)
  in
  match
    Sweep.masked ~requests ~cache:(cache_cfg ())
      ~timing:Machine.Timing.default ~page_size ~tlb_entries
      ~regions:
        [
          (a.Gen.base, size_of a, mask_a);
          (b.Gen.base, size_of b, mask_b);
        ]
      [ a.Gen.packed; b.Gen.packed ]
  with
  | Some sweep -> check_stats_with_requests "masked" exact sweep
  | None -> Alcotest.fail "masked sweep infeasible"

let test_sweep_masked_rejects_overlap () =
  let a = Gen.emit ~seed:31 ~n:100 (Gen.Uniform { items = 32 }) in
  check_bool "overlapping masks infeasible" true
    (Sweep.masked ~cache:(cache_cfg ()) ~timing:Machine.Timing.default
       ~page_size ~tlb_entries
       ~regions:
         [
           (0, 4096, Bitmask.range ~lo:0 ~hi:4);
           (65536, 4096, Bitmask.range ~lo:4 ~hi:7);
         ]
       [ a.Gen.packed ]
    = None)

let suites =
  [
    ( "workload_gen",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_deterministic;
          prop_contained;
          prop_kv_contained;
          prop_perturb_escapes;
        ]
      @ [
          Alcotest.test_case "zipf rank-frequency slope" `Quick
            test_zipf_slope;
          Alcotest.test_case "hot-set drift shifts the mode" `Quick
            test_hot_set_drift_shifts_mode;
        ] );
    ( "latency",
      [
        Alcotest.test_case "nearest-rank percentiles exact" `Quick
          test_percentiles_exact;
        Alcotest.test_case "tiny distributions" `Quick test_percentiles_small;
        Alcotest.test_case "merge" `Quick test_latency_merge;
        Alcotest.test_case "builder = of_samples" `Quick
          test_builder_matches_of_samples;
        Alcotest.test_case "machine: hand-built request latencies" `Quick
          test_machine_requests_pinned;
        Alcotest.test_case "machine: aggregates unchanged by windows" `Quick
          test_machine_requests_aggregate_unchanged;
        Alcotest.test_case "machine: malformed spans rejected" `Quick
          test_machine_requests_rejects_malformed;
      ] );
    ( "latency_sweep_equality",
      [
        Alcotest.test_case "standard sweep = machine, per stream" `Quick
          test_sweep_standard_latency_exact;
        Alcotest.test_case "kv workload" `Quick test_sweep_kv_latency_exact;
        Alcotest.test_case "masked tenants = machine" `Quick
          test_sweep_masked_latency_exact;
        Alcotest.test_case "masked rejects overlapping masks" `Quick
          test_sweep_masked_rejects_overlap;
      ] );
  ]
