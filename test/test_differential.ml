(* The differential conformance harness: a fixed-seed soak of the real
   simulators against the naive oracle, mutation tests proving the harness
   catches (and shrinks) planted replacement bugs, and unit coverage of the
   invariant checkers and the scenario format. *)

module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask
module Access = Memtrace.Access
module Oracle = Check.Oracle
module Gen = Check.Gen
module Diff = Check.Diff
module Scenario = Check.Scenario
module Invariant = Check.Invariant
module Prng = Workloads.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- the fixed-seed batch --- *)

let soak_result = lazy (Diff.soak ~seed:42 ~iters:500 ())

let test_soak_agrees () =
  match Lazy.force soak_result with
  | Ok summary -> check_int "iterations" 500 summary.Diff.iters
  | Error (failure, _) ->
      Alcotest.failf "divergence: %a" Diff.pp_failure failure

let test_soak_covers_policies () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      Alcotest.(check (list string))
        "all four policy families exercised"
        [ "fifo"; "lru"; "plru"; "random" ]
        summary.Diff.policies

let test_soak_covers_geometries () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      check_int "1-way cache exercised" 1 summary.Diff.min_ways;
      check_int "max-way cache exercised" Bitmask.max_columns
        summary.Diff.max_ways;
      check_bool "re-tints happened mid-trace" true (summary.Diff.retints > 0);
      check_bool "re-maps happened mid-trace" true (summary.Diff.remaps > 0)

let test_soak_covers_fast_path () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      check_int "half the scenarios replayed through access_trace" 250
        summary.Diff.fast_path_iters

let test_soak_covers_machine () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      check_int "half the scenarios replayed through the machine diff" 250
        summary.Diff.machine_iters

let test_soak_covers_sampled () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      (* every fourth scenario (i mod 4 = 3) also runs the sampled-vs-exact
         error-bound differential: 125 of 500 *)
      check_int "sampled-estimator scenarios" 125 summary.Diff.sample_iters

let test_soak_covers_shard () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      (* the remaining quarter slot (i mod 4 = 2) runs the sharded-vs-serial
         stack-distance differential: 125 of 500 *)
      check_int "sharded-vs-serial scenarios" 125 summary.Diff.shard_iters

let test_soak_covers_traffic () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      (* Every third iteration after the 8-scenario forced preamble:
         i in [8, 500) with i mod 3 = 2 — 164 of them. *)
      check_int "traffic-shaped generator scenarios" 164
        summary.Diff.traffic_iters

let test_soak_covers_wcet () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      (* Every fifth iteration after the 8-scenario forced preamble:
         i in [8, 500) with i mod 5 = 4 — 99 of them. *)
      check_int "wcet static-bound checks" 99 summary.Diff.wcet_iters

let test_soak_covers_event () =
  match Lazy.force soak_result with
  | Error _ -> Alcotest.fail "soak diverged"
  | Ok summary ->
      (* Every third iteration, preamble included: i in [0, 500) with
         i mod 3 = 0 — 167 of them. *)
      check_int "event-core count differentials" 167 summary.Diff.event_iters

(* --- mutation tests: a harness that cannot catch a planted bug proves
   nothing, so plant three and insist each is caught and shrunk small --- *)

let mutation_caught bug =
  match Diff.soak ~bug ~seed:42 ~iters:500 () with
  | Ok _ ->
      Alcotest.failf "injected bug %s survived 500 iterations"
        (Oracle.bug_to_string bug)
  | Error (failure, _) ->
      let sc = failure.Diff.scenario in
      (* Replay with the driver that caught it: a fast-path repro only
         diverges through the batched driver. *)
      check_bool "repro still diverges" true
        (match Diff.run_scenario ~bug ~fast_path:failure.Diff.fast_path sc with
        | Diff.Diverge _ -> true
        | Diff.Agree -> false);
      check_bool
        (Printf.sprintf "repro is <= 20 accesses (got %d)"
           (Scenario.accesses sc))
        true
        (Scenario.accesses sc <= 20);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal sc (Scenario.of_string (Scenario.to_string sc)))

let test_mutation_mru () = mutation_caught Oracle.Mru_instead_of_lru
let test_mutation_ignore_mask () = mutation_caught Oracle.Ignore_mask
let test_mutation_writeback () = mutation_caught Oracle.Skip_writeback_count

let test_mutation_fast_path () =
  (* The planted batching bug only exists in the fast-path driver, so the
     divergence must be caught on a fast-path iteration. *)
  match Diff.soak ~bug:Oracle.Fast_path ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "fast-path bug survived 500 iterations"
  | Error (failure, _) ->
      check_bool "caught by the batched driver" true failure.Diff.fast_path;
      check_bool "repro diverges under the batched driver" true
        (match
           Diff.run_scenario ~bug:Oracle.Fast_path ~fast_path:true
             failure.Diff.scenario
         with
        | Diff.Diverge _ -> true
        | Diff.Agree -> false);
      check_bool "repro agrees without the planted bug" true
        (match
           Diff.run_scenario ~fast_path:true failure.Diff.scenario
         with
        | Diff.Agree -> true
        | Diff.Diverge _ -> false)

let test_mutation_machine_fast_path () =
  (* The planted gap-zeroing bug only exists in the machine-level batched
     replay, so the divergence must be caught on a machine iteration. *)
  match Diff.soak ~bug:Oracle.Machine_fast_path ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "machine-fast-path bug survived 500 iterations"
  | Error (failure, _) ->
      check_bool "caught by the machine batched-replay driver" true
        failure.Diff.machine;
      check_bool "repro diverges under the machine driver" true
        (match
           Check.Machine_diff.run_scenario ~bug:Oracle.Machine_fast_path
             failure.Diff.scenario
         with
        | Check.Machine_diff.Diverge _ -> true
        | Check.Machine_diff.Agree -> false);
      check_bool "repro agrees without the planted bug" true
        (match Check.Machine_diff.run_scenario failure.Diff.scenario with
        | Check.Machine_diff.Agree -> true
        | Check.Machine_diff.Diverge _ -> false);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal failure.Diff.scenario
           (Scenario.of_string (Scenario.to_string failure.Diff.scenario)))

let test_mutation_gen () =
  (* The planted Zipf-sampler bug lives in the workload generator, so it is
     caught by the containment check on a traffic-shaped iteration — a
     generator-vs-declaration violation, not a driver divergence. *)
  match Diff.soak ~bug:Oracle.Gen ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "gen bug survived 500 iterations"
  | Error (failure, summary) ->
      check_bool "flagged as a generator-containment failure" true
        failure.Diff.gen;
      check_bool "not attributed to any driver" true
        ((not failure.Diff.fast_path)
        && (not failure.Diff.machine)
        && not failure.Diff.mrc);
      check_int "repro is the single offending access" 1
        (Scenario.length failure.Diff.scenario);
      check_bool "some traffic scenarios ran before the catch" true
        (summary.Diff.traffic_iters > 0);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal failure.Diff.scenario
           (Scenario.of_string (Scenario.to_string failure.Diff.scenario)))

let test_mutation_sample () =
  (* The planted forgotten-rescale bug only exists in the sampled-estimator
     driver, so the divergence must be caught on a sampled iteration and
     attributed to no other driver. *)
  match Diff.soak ~bug:Oracle.Sample ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "sample bug survived 500 iterations"
  | Error (failure, summary) ->
      check_bool "caught by the sampled-estimator driver" true
        failure.Diff.sample;
      check_bool "not attributed to any other driver" true
        ((not failure.Diff.fast_path)
        && (not failure.Diff.machine)
        && (not failure.Diff.mrc)
        && not failure.Diff.gen);
      check_bool "some sampled scenarios ran before the catch" true
        (summary.Diff.sample_iters > 0);
      check_bool "repro still diverges under the sampled driver" true
        (match
           Check.Sample_diff.run_scenario ~bug:Oracle.Sample
             failure.Diff.scenario
         with
        | Check.Sample_diff.Diverge _ -> true
        | Check.Sample_diff.Agree -> false);
      check_bool "repro agrees without the planted bug" true
        (match Check.Sample_diff.run_scenario failure.Diff.scenario with
        | Check.Sample_diff.Agree -> true
        | Check.Sample_diff.Diverge _ -> false);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal failure.Diff.scenario
           (Scenario.of_string (Scenario.to_string failure.Diff.scenario)))

let test_mutation_wcet () =
  (* The planted unsound must-join lives in the static cache analysis, so
     it is caught by the bound-vs-replay check on a wcet iteration — a
     static-bound violation, not a driver divergence. *)
  match Diff.soak ~bug:Oracle.Wcet ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "wcet bug survived 500 iterations"
  | Error (failure, summary) ->
      check_bool "flagged as a wcet static-bound failure" true
        failure.Diff.wcet;
      check_bool "not attributed to any driver" true
        ((not failure.Diff.fast_path)
        && (not failure.Diff.machine)
        && (not failure.Diff.mrc)
        && (not failure.Diff.sample)
        && not failure.Diff.gen);
      check_bool "some wcet checks ran before the catch" true
        (summary.Diff.wcet_iters > 0)

let test_mutation_event () =
  (* The planted MSHR-merge bug lives in the event core's delayed-hit path
     (a merged access replayed against the cache twice), so it must be
     caught by the event-core count differential and attributed to no
     other driver. *)
  match Diff.soak ~bug:Oracle.Event ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "event bug survived 500 iterations"
  | Error (failure, _) ->
      check_bool "caught by the event-core count differential" true
        failure.Diff.event;
      check_bool "not attributed to any other driver" true
        ((not failure.Diff.fast_path)
        && (not failure.Diff.machine)
        && (not failure.Diff.mrc)
        && (not failure.Diff.sample)
        && (not failure.Diff.gen)
        && not failure.Diff.wcet);
      check_bool
        (Printf.sprintf "repro is <= 20 accesses (got %d)"
           (Scenario.accesses failure.Diff.scenario))
        true
        (Scenario.accesses failure.Diff.scenario <= 20);
      check_bool "repro still diverges under the event driver" true
        (match
           Check.Event_diff.run_scenario ~bug:Oracle.Event
             failure.Diff.scenario
         with
        | Check.Event_diff.Diverge _ -> true
        | Check.Event_diff.Agree -> false);
      check_bool "repro agrees without the planted bug" true
        (match Check.Event_diff.run_scenario failure.Diff.scenario with
        | Check.Event_diff.Agree -> true
        | Check.Event_diff.Diverge _ -> false);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal failure.Diff.scenario
           (Scenario.of_string (Scenario.to_string failure.Diff.scenario)))

let test_mutation_shard () =
  (* The planted merge bug drops the last worker's shard from the sharded
     stack-distance merge, so it must be caught by the sharded-vs-serial
     differential and attributed to no other driver. *)
  match Diff.soak ~bug:Oracle.Shard ~seed:42 ~iters:500 () with
  | Ok _ -> Alcotest.fail "shard bug survived 500 iterations"
  | Error (failure, summary) ->
      check_bool "caught by the sharded-vs-serial differential" true
        failure.Diff.shard;
      check_bool "not attributed to any other driver" true
        ((not failure.Diff.fast_path)
        && (not failure.Diff.machine)
        && (not failure.Diff.mrc)
        && (not failure.Diff.sample)
        && (not failure.Diff.gen)
        && (not failure.Diff.wcet)
        && not failure.Diff.event);
      check_bool "some sharded scenarios ran before the catch" true
        (summary.Diff.shard_iters > 0);
      check_bool
        (Printf.sprintf "repro is <= 20 accesses (got %d)"
           (Scenario.accesses failure.Diff.scenario))
        true
        (Scenario.accesses failure.Diff.scenario <= 20);
      check_bool "repro still diverges under the sharded driver" true
        (match
           Check.Shard_diff.run_scenario ~bug:Oracle.Shard
             failure.Diff.scenario
         with
        | Check.Shard_diff.Diverge _ -> true
        | Check.Shard_diff.Agree -> false);
      check_bool "repro agrees without the planted bug" true
        (match Check.Shard_diff.run_scenario failure.Diff.scenario with
        | Check.Shard_diff.Agree -> true
        | Check.Shard_diff.Diverge _ -> false);
      check_bool "repro survives the textual round-trip" true
        (Scenario.equal failure.Diff.scenario
           (Scenario.of_string (Scenario.to_string failure.Diff.scenario)))

(* --- the oracle on its own: agreement with hand-computed semantics --- *)

let test_oracle_direct_lru () =
  (* 1 set, 2 ways, LRU: fill, fill, hit way 0, evict way 1. *)
  let cfg = Sassoc.config ~line_size:16 ~size_bytes:32 ~ways:2 () in
  let o = Oracle.create cfg in
  (match Oracle.access o ~kind:Access.Read 0 with
  | Sassoc.Miss { way = 0; evicted_line = None } -> ()
  | _ -> Alcotest.fail "first access should miss into way 0");
  ignore (Oracle.access o ~kind:Access.Read 16);
  (* touch line 0 again so line 1 becomes LRU *)
  (match Oracle.access o ~kind:Access.Read 4 with
  | Sassoc.Hit { way = 0 } -> ()
  | _ -> Alcotest.fail "expected hit in way 0");
  match Oracle.access o ~kind:Access.Read 32 with
  | Sassoc.Miss { way = 1; evicted_line = Some 1 } -> ()
  | _ -> Alcotest.fail "expected eviction of LRU line 1 from way 1"

let test_oracle_rejects_empty_mask () =
  let cfg = Sassoc.config ~line_size:16 ~size_bytes:64 ~ways:2 () in
  let o = Oracle.create cfg in
  check_bool "empty mask" true
    (try ignore (Oracle.access o ~mask:Bitmask.empty ~kind:Access.Read 0); false
     with Invalid_argument _ -> true);
  check_bool "out-of-range-only mask" true
    (try
       ignore (Oracle.access o ~mask:(Bitmask.singleton 5) ~kind:Access.Read 0);
       false
     with Invalid_argument _ -> true)

(* --- invariant checkers --- *)

let test_invariant_victim_in_mask () =
  let m = Bitmask.of_list [ 1; 2 ] in
  check_bool "inside" true
    (Invariant.victim_in_mask ~mask:m
       (Sassoc.Miss { way = 2; evicted_line = None })
     = Ok ());
  check_bool "outside" true
    (match
       Invariant.victim_in_mask ~mask:m
         (Sassoc.Miss { way = 0; evicted_line = None })
     with
    | Error _ -> true
    | Ok () -> false);
  check_bool "hits are exempt" true
    (Invariant.victim_in_mask ~mask:m (Sassoc.Hit { way = 0 }) = Ok ())

let test_invariant_stats_conserved () =
  let s = Cache.Stats.create ~ways:2 in
  s.Cache.Stats.accesses <- 10;
  s.Cache.Stats.hits <- 6;
  s.Cache.Stats.misses <- 4;
  check_bool "conserved" true (Invariant.stats_conserved s = Ok ());
  s.Cache.Stats.hits <- 7;
  check_bool "violation detected" true
    (match Invariant.stats_conserved s with Error _ -> true | Ok () -> false)

let test_invariant_occupancy () =
  let cfg = Sassoc.config ~line_size:16 ~size_bytes:64 ~ways:4 () in
  let c = Sassoc.create cfg in
  let m = Bitmask.of_list [ 1; 3 ] in
  ignore (Sassoc.access c ~mask:m ~kind:Access.Read 0);
  ignore (Sassoc.access c ~mask:m ~kind:Access.Read 16);
  check_bool "stays inside fill masks" true
    (Invariant.occupancy_within c ~set:0 ~allowed:m = Ok ());
  check_int "occupancy" 2 (Sassoc.set_occupancy c 0);
  check_bool "tighter mask flags it" true
    (match Invariant.occupancy_within c ~set:0 ~allowed:(Bitmask.singleton 1) with
    | Error _ -> true
    | Ok () -> false)

let test_invariant_lru_monitor () =
  let cfg = Sassoc.config ~line_size:16 ~size_bytes:32 ~ways:2 () in
  let mon = Invariant.Lru_monitor.create cfg in
  let full = Bitmask.full ~n:2 in
  let ok r = Alcotest.(check bool) "monitor accepts" true (r = Ok ()) in
  ok (Invariant.Lru_monitor.note mon ~mask:full ~kind:Access.Read 0
        (Sassoc.Miss { way = 0; evicted_line = None }));
  ok (Invariant.Lru_monitor.note mon ~mask:full ~kind:Access.Read 16
        (Sassoc.Miss { way = 1; evicted_line = None }));
  (* claiming to evict way 1 (the MRU) must be rejected *)
  check_bool "MRU eviction rejected" true
    (match
       Invariant.Lru_monitor.note mon ~mask:full ~kind:Access.Read 32
         (Sassoc.Miss { way = 1; evicted_line = Some 1 })
     with
    | Error _ -> true
    | Ok () -> false)

(* --- scenario format --- *)

let test_scenario_roundtrip () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 50 do
    let sc = Gen.scenario rng in
    let sc' = Scenario.of_string (Scenario.to_string sc) in
    check_bool "textual round-trip" true (Scenario.equal sc sc')
  done

let test_scenario_rejects_garbage () =
  check_bool "bad header" true
    (try ignore (Scenario.of_string "nonsense\n"); false
     with Invalid_argument _ -> true);
  check_bool "bad event" true
    (try
       ignore
         (Scenario.of_string
            "colcache-scenario v1\n\
             cache line_size=16 sets=2 ways=2 policy=lru classify=false\n\
             vm page_size=64 tlb_entries=2\n\
             frobnicate");
       false
     with Invalid_argument _ -> true)

(* --- determinism: same seed, same verdicts --- *)

let test_soak_deterministic () =
  let run () =
    match Diff.soak ~seed:7 ~iters:40 () with
    | Ok s -> (s.Diff.events, s.Diff.accesses, s.Diff.policies)
    | Error _ -> Alcotest.fail "seed 7 diverged"
  in
  check_bool "two runs identical" true (run () = run ())

let suites =
  [
    ( "check.differential",
      [
        Alcotest.test_case "fixed-seed soak agrees" `Quick test_soak_agrees;
        Alcotest.test_case "covers all policies" `Quick test_soak_covers_policies;
        Alcotest.test_case "covers geometry extremes" `Quick test_soak_covers_geometries;
        Alcotest.test_case "covers the batched fast path" `Quick test_soak_covers_fast_path;
        Alcotest.test_case "covers the machine batched replay" `Quick
          test_soak_covers_machine;
        Alcotest.test_case "covers traffic-shaped generators" `Quick
          test_soak_covers_traffic;
        Alcotest.test_case "covers the wcet static-bound check" `Quick
          test_soak_covers_wcet;
        Alcotest.test_case "covers the sampled estimator" `Quick
          test_soak_covers_sampled;
        Alcotest.test_case "covers the sharded-vs-serial differential" `Quick
          test_soak_covers_shard;
        Alcotest.test_case "covers the event-core differential" `Quick
          test_soak_covers_event;
        Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
      ] );
    ( "check.mutation",
      [
        Alcotest.test_case "catches MRU-for-LRU" `Quick test_mutation_mru;
        Alcotest.test_case "catches mask ignoring" `Quick test_mutation_ignore_mask;
        Alcotest.test_case "catches writeback miscount" `Quick test_mutation_writeback;
        Alcotest.test_case "catches fast-path batching bug" `Quick test_mutation_fast_path;
        Alcotest.test_case "catches machine batched-replay bug" `Quick
          test_mutation_machine_fast_path;
        Alcotest.test_case "catches generator sampler bug" `Quick
          test_mutation_gen;
        Alcotest.test_case "catches wcet unsound-join bug" `Quick
          test_mutation_wcet;
        Alcotest.test_case "catches sampled-estimator rescale bug" `Quick
          test_mutation_sample;
        Alcotest.test_case "catches event-core MSHR-merge bug" `Quick
          test_mutation_event;
        Alcotest.test_case "catches sharded merge bug" `Quick
          test_mutation_shard;
      ] );
    ( "check.oracle",
      [
        Alcotest.test_case "hand-computed LRU" `Quick test_oracle_direct_lru;
        Alcotest.test_case "rejects empty mask" `Quick test_oracle_rejects_empty_mask;
      ] );
    ( "check.invariants",
      [
        Alcotest.test_case "victim in mask" `Quick test_invariant_victim_in_mask;
        Alcotest.test_case "stats conservation" `Quick test_invariant_stats_conserved;
        Alcotest.test_case "occupancy within masks" `Quick test_invariant_occupancy;
        Alcotest.test_case "LRU recency monitor" `Quick test_invariant_lru_monitor;
      ] );
    ( "check.scenario",
      [
        Alcotest.test_case "round-trip" `Quick test_scenario_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_scenario_rejects_garbage;
      ] );
  ]
