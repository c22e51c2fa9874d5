(* Benchmark harness: regenerates every figure of the paper (printing the
   same rows/series the paper plots) and then times one representative unit
   of work per experiment with Bechamel.

   Run: dune exec bench/main.exe
   Flags:
     --no-bechamel          skip the micro-benchmarks
     --quick                skip the figure regeneration and use a short
                            Bechamel quota (the CI smoke configuration)
     --json FILE            write the timings as JSON rows (Bench_json)
     --baseline FILE        compare against a previous --json file...
     --max-regression PCT   ...and exit 1 if any benchmark got more than
                            PCT percent slower (default 50) *)

open Bechamel
open Bechamel.Toolkit

let experiments () =
  let ppf = Format.std_formatter in
  Format.fprintf ppf "================================================@.";
  Format.fprintf ppf "colcache: paper experiment regeneration@.";
  Format.fprintf ppf "================================================@.@.";
  Colcache.Experiments.run_all ppf;
  Format.pp_print_flush ppf ()

(* Reduced-size workloads so each Bechamel sample stays small; the full-size
   runs are the printed series above. *)

let bench_fig3 () = ignore (Colcache.Experiments.Fig3.run ())

let mpeg =
  lazy
    (Colcache.Pipeline.make ~init:Workloads.Mpeg.init
       ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
       Workloads.Mpeg.program)

let bench_fig4_routine proc () =
  let t = Lazy.force mpeg in
  ignore
    (Colcache.Pipeline.run_partitioned t ~proc ~scratchpad_columns:2
       ~meth:Colcache.Pipeline.Profile_based)

let bench_fig4d () =
  let t = Lazy.force mpeg in
  ignore
    (Colcache.Pipeline.run_static_app t ~procs:Workloads.Mpeg.routines
       ~scratchpad_columns:2 ~meth:Colcache.Pipeline.Profile_based)

let bench_fig5 () =
  ignore
    (Colcache.Experiments.Fig5.run ~quanta:[ 1024 ] ~cache_kbs:[ 16 ]
       ~input_len:2048 ())

let bench_ablation_policy () =
  let t = Lazy.force mpeg in
  ignore
    (Colcache.Pipeline.run_partitioned t ~proc:"plus" ~scratchpad_columns:1
       ~meth:Colcache.Pipeline.Profile_based)

let bench_ablation_columns () =
  ignore (Colcache.Experiments.Ablation_columns.run ~columns_list:[ 2 ] ())

let bench_ablation_weights () =
  let t = Lazy.force mpeg in
  ignore
    (Colcache.Pipeline.run_partitioned t ~proc:"dequant" ~scratchpad_columns:1
       ~meth:Colcache.Pipeline.Program_analysis)

let bench_ablation_tlb () =
  ignore
    (Colcache.Experiments.Ablation_tlb.run ~quanta:[ 4096 ] ~sizes:[ 32 ]
       ~input_len:2048 ())

let bench_ablation_grouping () =
  ignore (Colcache.Experiments.Ablation_grouping.run ())

let bench_ablation_page_coloring () =
  ignore (Colcache.Experiments.Ablation_page_coloring.run ())

let bench_ablation_l2 () = ignore (Colcache.Experiments.Ablation_l2.run ())

let bench_ablation_prefetch () =
  ignore (Colcache.Experiments.Ablation_prefetch.run ())

let bench_generality () = ignore (Colcache.Experiments.Generality.run ())

let bench_ablation_optimizer () =
  ignore (Ir.Optimize.optimize Workloads.Mpeg.program)

(* One differential-oracle scenario, fixed ahead of time so every sample
   replays identical work (generation excluded from the timed region). *)
let check_scenario =
  lazy (Check.Gen.scenario ~max_events:160 (Workloads.Prng.create ~seed:7))

let bench_check () =
  match Check.Diff.run_scenario (Lazy.force check_scenario) with
  | Check.Diff.Agree -> ()
  | Check.Diff.Diverge _ -> failwith "bench: differential divergence"

(* --- simulator hot path -------------------------------------------------
   The raw cache replay cost, isolated from layout/VM/scheduling: the
   Figure 5 job-A workload (LZ77, 12 KiB of input) against the Figure 5
   cache geometry (16 KB, 8-way, LRU). [hot_access] replays it one access
   at a time through the general entry point; [hot_access_trace] replays it
   through the batched [Sassoc.access_trace] loop. Each bench reuses one
   cache and flushes it per run: under LRU a flushed cache replays the trace
   exactly like a fresh one (empty ways always win victim selection, and
   every stamp consulted later is rewritten first), so runs are identical
   work with no per-run allocation muddying the timing. These rows carry
   accesses_per_sec in the JSON output; the regression harness watches them
   the closest. *)

let hot_trace = lazy (Workloads.Lz77.trace ~seed:1 ~input_len:12288 ~base:0 ())

let hot_cache () =
  Cache.Sassoc.create
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

let hot_cache_access = lazy (hot_cache ())
let hot_cache_trace = lazy (hot_cache ())

let bench_hot_access () =
  let cache = Lazy.force hot_cache_access in
  Cache.Sassoc.flush cache;
  Memtrace.Trace.iter
    (fun a -> ignore (Cache.Sassoc.access_record cache a))
    (Lazy.force hot_trace)

let bench_hot_access_trace () =
  let cache = Lazy.force hot_cache_trace in
  Cache.Sassoc.flush cache;
  Cache.Sassoc.access_trace cache (Lazy.force hot_trace)

(* --- whole-system replay ------------------------------------------------
   The same LZ77 workload replayed through the full machine model — TLB,
   tint resolution, timing — not just the bare cache. [sys_replay_scalar]
   drives [System.run], one boxed access at a time; [sys_replay_batched]
   drives [System.run_packed] over the columnar trace, the page-crossing
   memoized loop the experiments use. Per run the cache and TLB are
   flushed: under LRU a flushed machine replays the trace exactly like a
   fresh one, so every sample is identical work. The batched/scalar ratio
   of these two rows is the headline number for the columnar replay
   path. *)

let sys_config () =
  Machine.System.config
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

let hot_packed = lazy (Workloads.Lz77.packed_trace ~seed:1 ~input_len:12288 ~base:0 ())
let sys_scalar = lazy (Machine.System.create (sys_config ()))
let sys_batched = lazy (Machine.System.create (sys_config ()))

let bench_sys_replay_scalar () =
  let sys = Lazy.force sys_scalar in
  Machine.System.flush_cache sys;
  Machine.System.flush_tlb sys;
  ignore (Machine.System.run sys (Lazy.force hot_trace))

let bench_sys_replay_batched () =
  let sys = Lazy.force sys_batched in
  Machine.System.flush_cache sys;
  Machine.System.flush_tlb sys;
  ignore (Machine.System.run_packed sys (Lazy.force hot_packed))

(* --- stack-distance engine ----------------------------------------------
   The single-pass sweep machinery on the same workloads. [mrc_histogram]
   replays the LZ77 packed trace through one fresh Stack_dist engine and
   reads the miss curve — the one pass that prices every associativity 1..8
   of the Figure 5 geometry at once (compare against sys_replay_batched,
   which prices exactly one configuration per replay). [mrc_per_tag] runs
   the per-variable split the MRC allocator consumes, one engine per
   interned tag of the hot-walk trace. A fresh engine per run keeps every
   sample identical work (Stack_dist has state but no flush). *)

let bench_mrc_histogram () =
  let engine =
    Cache.Stack_dist.create ~line_size:16 ~sets:128 ~max_ways:8 ()
  in
  Cache.Stack_dist.access_packed engine (Lazy.force hot_packed);
  ignore (Cache.Stack_dist.miss_curve engine)

(* The set-sharded parallel pass over the same trace and geometry:
   [mrc_parallel_j1] prices the sharding scaffolding itself (chunked
   streaming + merge, no domains spawned), j2/j4 add worker domains. On a
   single-core container the wall-clock win is bounded; the per-shard
   engine-access split (roughly 1/jobs each) is asserted by the
   [mrc_scaling] experiment and test suite instead. *)
let bench_mrc_parallel jobs () =
  ignore
    (Cache.Stack_dist.of_packed_parallel ~jobs ~line_size:16 ~sets:128
       ~max_ways:8 (Lazy.force hot_packed))

(* The rolling-window engine over the same trace: one observe per access
   plus O(max_ways) epoch seals, read out once at the end — the per-access
   overhead the online allocator pays versus the one-shot engine. *)
let bench_mrc_windowed () =
  let engine =
    Cache.Stack_dist.Windowed.create ~window:4096 ~epochs:8 ~line_size:16
      ~sets:128 ~max_ways:8 ()
  in
  Cache.Stack_dist.Windowed.observe_packed engine (Lazy.force hot_packed);
  ignore (Cache.Stack_dist.Windowed.mrc_now engine)

let hot_walk_packed =
  lazy
    (let t =
       Colcache.Pipeline.make ~init:Workloads.Kernels.init
         ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
         (Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20)
     in
     Colcache.Pipeline.packed_trace_of t ~proc:"hot_walk")

let bench_mrc_per_tag () =
  ignore
    (Cache.Stack_dist.per_tag_of_packed ~line_size:16 ~sets:32 ~max_ways:4
       (Lazy.force hot_walk_packed))

(* --- sampled stack distances / out-of-core replay -----------------------
   [mrc_sampled_lz77] and [mrc_sampled_zipf] replay the same traces as the
   exact engines but through the SHARDS-style set-sampled estimator — the
   speedup over [mrc_histogram] is what sampling buys, and the JSON rows
   carry the observed mean absolute miss-ratio error against the exact
   curve (computed once, outside the timed region) so a throughput win
   bought by a broken estimate shows up in the baseline diff.
   [sys_replay_mmap] is [sys_replay_batched] with the packed trace mapped
   from a file instead of resident — the page-cache-backed out-of-core
   path the large-trace smoke job uses. *)

let zipf_packed =
  lazy
    (Workloads.Gen.emit ~seed:13 ~n:65536
       (Workloads.Gen.Zipf { items = 8192; theta = 0.99 }))
      .Workloads.Gen.packed

let bench_mrc_sampled_lz77 () =
  let engine =
    Cache.Stack_dist.Sampled.create ~rate:0.1 ~line_size:16 ~sets:128
      ~max_ways:8 ()
  in
  Cache.Stack_dist.Sampled.access_packed engine (Lazy.force hot_packed);
  ignore (Cache.Stack_dist.Sampled.mrc_est engine)

let bench_mrc_sampled_zipf () =
  let engine =
    Cache.Stack_dist.Sampled.create ~rate:0.1 ~line_size:16 ~sets:128
      ~max_ways:8 ()
  in
  Cache.Stack_dist.Sampled.access_packed engine (Lazy.force zipf_packed);
  ignore (Cache.Stack_dist.Sampled.mrc_est engine)

(* Observed estimator error for the JSON rows: mean absolute miss-ratio
   error over associativities 1..8, sampled (as benched above) vs exact. *)
let sampled_error packed =
  let exact = Cache.Stack_dist.create ~line_size:16 ~sets:128 ~max_ways:8 () in
  Cache.Stack_dist.access_packed exact packed;
  let sampled =
    Cache.Stack_dist.Sampled.create ~rate:0.1 ~line_size:16 ~sets:128
      ~max_ways:8 ()
  in
  Cache.Stack_dist.Sampled.access_packed sampled packed;
  let mrc = Cache.Stack_dist.mrc exact in
  let est = Cache.Stack_dist.Sampled.mrc_est sampled in
  let sum = ref 0. in
  for a = 1 to 8 do
    sum := !sum +. abs_float (est.(a) -. mrc.(a))
  done;
  !sum /. 8.

let sample_errors () =
  [
    ("colcache/mrc_sampled_lz77", sampled_error (Lazy.force hot_packed));
    ("colcache/mrc_sampled_zipf", sampled_error (Lazy.force zipf_packed));
  ]

let mmap_packed =
  lazy
    (let path = Filename.temp_file "colcache_bench" ".pk" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Memtrace.Packed.write_file path (Lazy.force hot_packed);
     Memtrace.Packed.map_file path)

let sys_mmap = lazy (Machine.System.create (sys_config ()))

let bench_sys_replay_mmap () =
  let sys = Lazy.force sys_mmap in
  Machine.System.flush_cache sys;
  Machine.System.flush_tlb sys;
  ignore (Machine.System.run_packed sys (Lazy.force mmap_packed))

(* --- static WCET analysis -----------------------------------------------
   [wcet_analysis] times one full abstract interpretation of the hot-walk
   kernel (fixpoint must/may/persistence analysis plus the per-site miss
   bounds); its accesses/sec divides the kernel's replay length by the
   analysis time — the cost of bounding an access statically next to the
   cost of simulating it ([hot_access]). [wcet_alloc] times the min-max
   column allocator over per-task bound curves built once outside the
   timed region. *)

let wcet_geometry ways = { Ir.Cache_analysis.line_size = 16; sets = 32; ways }

let bench_wcet_analysis () =
  ignore
    (Ir.Cache_analysis.analyze (wcet_geometry 4)
       (Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20)
       ~proc:"hot_walk")

let wcet_curves =
  lazy
    (let p = Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20 in
     let base =
       Array.init 9 (fun c ->
           match
             (Ir.Cache_analysis.analyze (wcet_geometry c) p ~proc:"hot_walk")
               .Ir.Cache_analysis.wcet_misses
           with
           | Some b -> float_of_int b
           | None -> infinity)
     in
     List.init 6 (fun i ->
         ( Printf.sprintf "task%d" i,
           Array.map (fun v -> v *. float_of_int (1 + i)) base )))

let bench_wcet_alloc () =
  ignore (Layout.Wcet_alloc.allocate ~columns:12 (Lazy.force wcet_curves))

(* --- workload generators ------------------------------------------------
   [gen_zipf] times the traffic-shaped generator itself: 32 K Zipf samples
   (harmonic-CDF binary search per draw) emitted into a packed trace.
   [kv_requests] times the per-request latency-accounting replay path:
   a fixed synthetic KV-store trace (hash probe + value walk per request)
   replayed through [System.run_packed_requests], which is [run_packed]
   plus window bookkeeping and the latency histogram build. Both rows carry
   accesses_per_sec. *)

let bench_gen_zipf () =
  ignore
    (Workloads.Gen.emit ~seed:11 ~n:32768
       (Workloads.Gen.Zipf { items = 4096; theta = 0.99 }))

let kv_trace =
  lazy
    (Workloads.Gen.kv ~seed:11 ~requests:2048 ~keys:512 ~buckets:128
       ~value_lines:4 ())

let kv_system = lazy (Machine.System.create (sys_config ()))

let bench_kv_requests () =
  let sys = Lazy.force kv_system in
  Machine.System.flush_cache sys;
  Machine.System.flush_tlb sys;
  let tr = Lazy.force kv_trace in
  ignore
    (Machine.System.run_packed_requests sys tr.Workloads.Gen.packed
       ~requests:tr.Workloads.Gen.requests)

(* --- event-driven core / multitask domains ------------------------------
   [sys_replay_events] is [sys_replay_batched] under the event-driven
   timing core (MSHRs + banked DRAM): identical functional work, so the
   ratio of the two rows is the pricing overhead of the event engine.
   [multitask_serial] and [multitask_domains] replay three LZ77 jobs with
   private systems through the epoch scheduler on one vs three worker
   domains — same outcome by construction, so the row ratio is the
   parallel speedup the host's cores actually deliver. *)

let sys_events = lazy (Machine.System.create (sys_config ()))

let bench_sys_replay_events () =
  let sys = Lazy.force sys_events in
  Machine.System.flush_cache sys;
  Machine.System.flush_tlb sys;
  ignore
    (Machine.System.run_packed_events sys ~events:Machine.Event.default_config
       (Lazy.force hot_packed))

let mt_jobs =
  lazy
    (List.map
       (fun (name, seed, base) ->
         {
           Sched.Epoch.name;
           packed = Workloads.Lz77.packed_trace ~seed ~input_len:4096 ~base ();
         })
       [ ("A", 1, 0x000000); ("B", 2, 0x100000); ("C", 3, 0x200000) ])

let mt_system (_ : Sched.Epoch.job) =
  Machine.System.create
    (Machine.System.config
       (Cache.Sassoc.config ~line_size:16 ~size_bytes:4096 ~ways:4 ()))

let bench_multitask jobs () =
  ignore
    (Sched.Epoch.run ~jobs ~epoch_accesses:4096 ~make_system:mt_system
       (Lazy.force mt_jobs))

(* Access counts for the accesses_per_sec column, keyed by full row name.
   Only benches whose sample replays a fixed trace get a count: one
   run_partitioned/run_static_app sample replays its routine's trace once
   (the layout work around it is memoized in the pipeline), the differential
   scenario has a fixed access count, and the hot-path/system/stack-distance
   rows replay their traces whole. Multi-configuration experiment rows
   (fig3, fig5, the ablation sweeps) replay several traces per sample, so no
   single count describes them. *)
let access_counts () =
  let n = float_of_int (Memtrace.Trace.length (Lazy.force hot_trace)) in
  let t = Lazy.force mpeg in
  let routine proc =
    float_of_int
      (Memtrace.Packed.length (Colcache.Pipeline.packed_trace_of t ~proc))
  in
  let fig4d =
    List.fold_left (fun acc p -> acc +. routine p) 0. Workloads.Mpeg.routines
  in
  [
    ("colcache/hot_access", n);
    ("colcache/hot_access_trace", n);
    ("colcache/sys_replay_scalar", n);
    ("colcache/sys_replay_batched", n);
    ("colcache/sys_replay_mmap", n);
    ("colcache/sys_replay_events", n);
    ( "colcache/multitask_serial",
      float_of_int
        (List.fold_left
           (fun acc (j : Sched.Epoch.job) ->
             acc + Memtrace.Packed.length j.Sched.Epoch.packed)
           0 (Lazy.force mt_jobs)) );
    ( "colcache/multitask_domains",
      float_of_int
        (List.fold_left
           (fun acc (j : Sched.Epoch.job) ->
             acc + Memtrace.Packed.length j.Sched.Epoch.packed)
           0 (Lazy.force mt_jobs)) );
    ("colcache/mrc_histogram", n);
    ("colcache/mrc_parallel_j1", n);
    ("colcache/mrc_parallel_j2", n);
    ("colcache/mrc_parallel_j4", n);
    ("colcache/mrc_windowed", n);
    ("colcache/mrc_sampled_lz77", n);
    ( "colcache/mrc_sampled_zipf",
      float_of_int (Memtrace.Packed.length (Lazy.force zipf_packed)) );
    ( "colcache/mrc_per_tag",
      float_of_int (Memtrace.Packed.length (Lazy.force hot_walk_packed)) );
    ( "colcache/wcet_analysis",
      float_of_int (Memtrace.Packed.length (Lazy.force hot_walk_packed)) );
    ("colcache/fig4a_dequant", routine "dequant");
    ("colcache/fig4b_plus", routine "plus");
    ("colcache/fig4c_idct", routine "idct");
    ("colcache/fig4d_combined", fig4d);
    ("colcache/ablation_policy", routine "plus");
    ("colcache/ablation_weights", routine "dequant");
    ( "colcache/check_differential",
      float_of_int (Check.Scenario.accesses (Lazy.force check_scenario)) );
    ("colcache/gen_zipf", 32768.);
    ( "colcache/kv_requests",
      float_of_int
        (Memtrace.Packed.length (Lazy.force kv_trace).Workloads.Gen.packed) );
  ]

let tests =
  Test.make_grouped ~name:"colcache"
    [
      Test.make ~name:"hot_access" (Staged.stage bench_hot_access);
      Test.make ~name:"hot_access_trace" (Staged.stage bench_hot_access_trace);
      Test.make ~name:"sys_replay_scalar" (Staged.stage bench_sys_replay_scalar);
      Test.make ~name:"sys_replay_batched" (Staged.stage bench_sys_replay_batched);
      Test.make ~name:"sys_replay_mmap" (Staged.stage bench_sys_replay_mmap);
      Test.make ~name:"sys_replay_events" (Staged.stage bench_sys_replay_events);
      Test.make ~name:"multitask_serial" (Staged.stage (bench_multitask 1));
      Test.make ~name:"multitask_domains" (Staged.stage (bench_multitask 3));
      Test.make ~name:"mrc_histogram" (Staged.stage bench_mrc_histogram);
      Test.make ~name:"mrc_parallel_j1" (Staged.stage (bench_mrc_parallel 1));
      Test.make ~name:"mrc_parallel_j2" (Staged.stage (bench_mrc_parallel 2));
      Test.make ~name:"mrc_parallel_j4" (Staged.stage (bench_mrc_parallel 4));
      Test.make ~name:"mrc_windowed" (Staged.stage bench_mrc_windowed);
      Test.make ~name:"mrc_sampled_lz77" (Staged.stage bench_mrc_sampled_lz77);
      Test.make ~name:"mrc_sampled_zipf" (Staged.stage bench_mrc_sampled_zipf);
      Test.make ~name:"mrc_per_tag" (Staged.stage bench_mrc_per_tag);
      Test.make ~name:"wcet_analysis" (Staged.stage bench_wcet_analysis);
      Test.make ~name:"wcet_alloc" (Staged.stage bench_wcet_alloc);
      Test.make ~name:"gen_zipf" (Staged.stage bench_gen_zipf);
      Test.make ~name:"kv_requests" (Staged.stage bench_kv_requests);
      Test.make ~name:"fig3_tint_remap" (Staged.stage bench_fig3);
      Test.make ~name:"fig4a_dequant" (Staged.stage (bench_fig4_routine "dequant"));
      Test.make ~name:"fig4b_plus" (Staged.stage (bench_fig4_routine "plus"));
      Test.make ~name:"fig4c_idct" (Staged.stage (bench_fig4_routine "idct"));
      Test.make ~name:"fig4d_combined" (Staged.stage bench_fig4d);
      Test.make ~name:"fig5_multitask" (Staged.stage bench_fig5);
      Test.make ~name:"ablation_policy" (Staged.stage bench_ablation_policy);
      Test.make ~name:"ablation_columns" (Staged.stage bench_ablation_columns);
      Test.make ~name:"ablation_weights" (Staged.stage bench_ablation_weights);
      Test.make ~name:"ablation_tlb" (Staged.stage bench_ablation_tlb);
      Test.make ~name:"ablation_grouping" (Staged.stage bench_ablation_grouping);
      Test.make ~name:"ablation_page_coloring"
        (Staged.stage bench_ablation_page_coloring);
      Test.make ~name:"ablation_l2" (Staged.stage bench_ablation_l2);
      Test.make ~name:"ablation_prefetch" (Staged.stage bench_ablation_prefetch);
      Test.make ~name:"generality_jpeg" (Staged.stage bench_generality);
      Test.make ~name:"ablation_optimizer" (Staged.stage bench_ablation_optimizer);
      Test.make ~name:"check_differential" (Staged.stage bench_check);
    ]

let run_bechamel ~quick () =
  (* The figure regeneration above leaves a large, fragmented major heap;
     collect it once so its GC debt is not billed to the first benchmarks. *)
  Gc.compact ();
  let instances = [ Instance.monotonic_clock ] in
  let quota = if quick then Time.second 0.25 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:50 ~quota ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let counts = access_counts () in
  let errors = sample_errors () in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        let est =
          match Analyze.OLS.estimates o with
          | Some [ e ] -> e
          | Some _ | None -> Float.nan
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "@.Bechamel timings (monotonic clock):@.";
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Format.printf "  %-40s (no estimate)@." name
      else
        match List.assoc_opt name counts with
        | Some n when est > 0. ->
            Format.printf "  %-40s %12.0f ns/run  %11.0f accesses/sec@." name
              est
              (n /. (est *. 1e-9))
        | _ -> Format.printf "  %-40s %12.0f ns/run@." name est)
    rows;
  (* JSON rows: drop benches Bechamel produced no estimate for rather than
     writing NaN (not JSON) or a fake zero. *)
  List.filter_map
    (fun (name, est) ->
      if Float.is_nan est then None
      else
        let accesses_per_sec =
          match List.assoc_opt name counts with
          | Some n when est > 0. -> n /. (est *. 1e-9)
          | _ -> 0.
        in
        Some
          {
            Colcache.Bench_json.name;
            ns_per_run = est;
            accesses_per_sec;
            sample_error = List.assoc_opt name errors;
          })
    rows

(* --- argument parsing ---------------------------------------------------- *)

type opts = {
  quick : bool;
  no_bechamel : bool;
  json : string option;
  baseline : string option;
  max_regression : float;
}

let usage () =
  prerr_endline
    "usage: bench/main.exe [--quick] [--no-bechamel] [--json FILE]\n\
    \       [--baseline FILE] [--max-regression PCT]";
  exit 2

let parse_args () =
  let rec go opts = function
    | [] -> opts
    | "--quick" :: rest -> go { opts with quick = true } rest
    | "--no-bechamel" :: rest -> go { opts with no_bechamel = true } rest
    | "--json" :: file :: rest -> go { opts with json = Some file } rest
    | "--baseline" :: file :: rest -> go { opts with baseline = Some file } rest
    | "--max-regression" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p >= 0. -> go { opts with max_regression = p } rest
        | _ -> usage ())
    | _ -> usage ()
  in
  go
    {
      quick = false;
      no_bechamel = false;
      json = None;
      baseline = None;
      max_regression = 50.;
    }
    (List.tl (Array.to_list Sys.argv))

let () =
  let opts = parse_args () in
  if not opts.quick then experiments ();
  if opts.no_bechamel then begin
    if opts.json <> None || opts.baseline <> None then begin
      prerr_endline "bench: --json/--baseline need the Bechamel run";
      exit 2
    end
  end
  else begin
    let rows = run_bechamel ~quick:opts.quick () in
    (match opts.json with
    | None -> ()
    | Some path ->
        Colcache.Bench_json.write ~path rows;
        Format.printf "wrote %d benchmark rows to %s@." (List.length rows) path);
    match opts.baseline with
    | None -> ()
    | Some path ->
        let baseline = Colcache.Bench_json.read ~path in
        let regs =
          Colcache.Bench_json.regressions ~baseline ~current:rows
            ~max_pct:opts.max_regression
        in
        if regs = [] then
          Format.printf "no regressions over %.0f%% against %s (%d rows)@."
            opts.max_regression path (List.length baseline)
        else begin
          Format.printf "REGRESSIONS over %.0f%% against %s:@."
            opts.max_regression path;
          List.iter
            (fun r ->
              Format.printf "  %a@." Colcache.Bench_json.pp_regression r)
            regs;
          exit 1
        end
  end
