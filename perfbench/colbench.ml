(* Whole-workflow and per-layer host timing of the column-cache simulator.

   One process runs one workload: it sets the inputs up from the seed,
   verifies the simulated outputs, times the workload's work for the given
   number of seconds, and prints its metrics; the last stdout line is one
   JSON object. With [--trace 1] it instead reports per-layer metrics from
   isolated passes over the workload's own trace, plus spans around every
   library call. NOTES.md says why each workload exists and which
   end-to-end metric each layer metric should move. *)

module Packed = Memtrace.Packed
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency
module Stack_dist = Cache.Stack_dist
module Sweep = Colcache.Sweep
module Pipeline = Colcache.Pipeline
module Fig4_routines = Colcache.Experiments.Fig4_routines
module Fig4_combined = Colcache.Experiments.Fig4_combined
module Fig5 = Colcache.Experiments.Fig5

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let minimum = List.fold_left min infinity

let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))

(* {1 Options} *)

type size = Full | Small

let workload_names = [ "replay"; "traffic"; "sweep"; "paper" ]

(* The seed whose outputs are pinned in [pins_file]. *)
let default_seed = 1
let pins_file = "perfbench/pins.txt"

(* Trace files and spans, relative to the checkout root. *)
let work_dir = ".perfbench_work"
let setup_reps = 5
let min_iterations = 3

let workload = ref ""
let seed = ref default_seed
let seconds = ref 10.0
let traced = ref 0
let size_arg = ref "full"
let git_rev = ref "unknown"
let flambda = ref "unknown"

let usage = "colbench --workload NAME --seed N --seconds S --trace 0|1"

let parse_args () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " replay|traffic|sweep|paper");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int traced, " 1: per-layer metrics and spans");
      ("--size", Arg.Set_string size_arg, " full|small (small: self-tests)");
      ("--git-rev", Arg.Set_string git_rev, " revision, for the manifest");
      ("--flambda", Arg.Set_string flambda, " yes|no, for the manifest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workload_names) then begin
    prerr_endline ("unknown --workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !traced <> 0 && !traced <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  match !size_arg with
  | "full" -> Full
  | "small" -> Small
  | s ->
      prerr_endline ("unknown --size " ^ s);
      exit 2

(* {1 Inputs} *)

let tlb_entries = 32
let line_size = 16
let ways = 8

type geometry = {
  cache : Cache.Sassoc.config;
  timing : Machine.Timing.t;
  page_size : int;
  tint_job_a : bool;
      (* Fig. 5's mapping: job A's region owns 6 of the 8 columns *)
}

let cache_kb kb = Cache.Sassoc.config ~line_size ~size_bytes:(kb * 1024) ~ways ()

(* Fig. 5's off-chip latency (Experiments.Fig5 keeps its own copy private). *)
let fig5_timing =
  { Machine.Timing.default with Machine.Timing.miss_penalty = 50 }

let fig5_geometry =
  { cache = cache_kb 16; timing = fig5_timing; page_size = 1024; tint_job_a = true }

let job_bases = [ 0x000000; 0x100000; 0x200000 ]
let job_a_size = 0x100000

type inputs = {
  trace : Packed.t;  (* the workload's own trace, mapped from its file *)
  requests : (int * int) array;
  geo : geometry;
  lo : int;  (* page-aligned address span of the trace *)
  hi : int;
}

let system ?(tinted = true) geo =
  let sys =
    System.create
      (System.config ~timing:geo.timing ~page_size:geo.page_size ~tlb_entries
         geo.cache)
  in
  if tinted && geo.tint_job_a then begin
    let m = System.mapping sys in
    let job_a = Vm.Tint.make "jobA" in
    ignore (Vm.Mapping.retint_region m ~base:0 ~size:job_a_size job_a);
    Vm.Mapping.remap_tint m job_a (Cache.Bitmask.range ~lo:0 ~hi:5);
    Vm.Mapping.remap_tint m Vm.Tint.default (Cache.Bitmask.range ~lo:6 ~hi:7)
  end;
  sys

let append b p =
  let addrs = Packed.raw_addrs p and gaps = Packed.raw_gaps p in
  let kinds = Packed.raw_kinds p and tags = Packed.raw_tags p in
  let vars = Packed.var_table p in
  for i = 0 to Packed.length p - 1 do
    let tag = tags.{i} in
    let var = if tag < 0 then None else Some vars.(tag) in
    Packed.Builder.emit b
      ~kind:(Packed.kind_of_code (Char.code kinds.{i}))
      ?var ~gap:gaps.{i} addrs.{i}
  done

let lz77_jobs ~input_len seeds =
  let b = Packed.Builder.create () in
  List.iter
    (fun round_seeds ->
      List.iter2
        (fun seed base ->
          append b (Workloads.Lz77.packed_trace ~seed ~input_len ~base ()))
        round_seeds job_bases)
    seeds;
  Packed.Builder.build b

(* Requests for workloads without request structure: 64-access windows. *)
let windows n =
  let w = 64 in
  if n < w then [| (0, n) |] else Array.init (n / w) (fun i -> (i * w, (i + 1) * w))

(* Input bytes per Fig. 5 job in the [paper] workload. *)
let paper_input_len size = if size = Full then 2048 else 1024

(* Each generator returns the in-memory trace, its request windows and its
   geometry; only these reach the library. *)
let generate size name ~seed =
  let full = size = Full in
  match name with
  | "replay" ->
      (* Jobs A/B/C as in Fig. 5, [rounds] seeds each, concatenated. *)
      let rounds = if full then 3 else 1 in
      let seeds =
        List.init rounds (fun r ->
            List.init 3 (fun j -> (seed * 1009) + (r * 3) + j))
      in
      let p = lz77_jobs ~input_len:(if full then 12288 else 2048) seeds in
      (p, windows (Packed.length p), fig5_geometry)
  | "traffic" ->
      let keys = if full then 65536 else 4096 in
      let kv =
        Workloads.Gen.kv ~seed
          ~requests:(if full then 100_000 else 5_000)
          ~keys ~buckets:(keys / 4) ~value_lines:4 ()
      in
      ( kv.Workloads.Gen.packed,
        kv.Workloads.Gen.requests,
        {
          cache = cache_kb 16;
          timing = Machine.Timing.default;
          page_size = 256;
          tint_job_a = false;
        } )
  | "sweep" ->
      let z =
        Workloads.Gen.emit ~seed
          ~n:(if full then 400_000 else 50_000)
          (Workloads.Gen.Zipf
             { items = (if full then 1 lsl 20 else 1 lsl 14); theta = 0.8 })
      in
      let p = z.Workloads.Gen.packed in
      ( p,
        windows (Packed.length p),
        {
          cache = cache_kb 16;
          timing = Machine.Timing.default;
          page_size = 1024;
          tint_job_a = false;
        } )
  | _ ->
      (* paper: Fig. 5's own jobs (seeds 1, 2, 3), whatever the seed — the
         paper's figures have fixed inputs. *)
      let p =
        lz77_jobs ~input_len:(paper_input_len size) [ [ 1; 2; 3 ] ]
      in
      (p, windows (Packed.length p), fig5_geometry)

let address_span geo p =
  let addrs = Packed.raw_addrs p in
  let lo = ref max_int and hi = ref 0 in
  for i = 0 to Packed.length p - 1 do
    let a = addrs.{i} in
    if a < !lo then lo := a;
    if a > !hi then hi := a
  done;
  let ps = geo.page_size in
  (!lo / ps * ps, ((!hi / ps) + 1) * ps)

type setup = { inputs : inputs; gen_s : float; map_s : float; total_s : float }

let setup size name ~seed ~rep =
  let path = Filename.concat work_dir (Printf.sprintf "%s-%d.trace" name rep) in
  let t0 = now () in
  let (_, requests, geo), gen_s =
    time (fun () ->
        Span.with_ "workloads.gen" (fun () ->
            let ((p, _, _) as g) = generate size name ~seed in
            Span.with_ "memtrace.write_file" (fun () -> Packed.write_file path p);
            g))
  in
  let trace, map_s =
    time (fun () -> Span.with_ "memtrace.map_file" (fun () -> Packed.map_file path))
  in
  let lo, hi = address_span geo trace in
  ignore
    (Sys.opaque_identity
       (Span.with_ "machine.system_create" (fun () -> system geo)));
  {
    inputs = { trace; requests; geo; lo; hi };
    gen_s;
    map_s;
    total_s = now () -. t0;
  }

(* A partition that splits the trace's address span in two page-aligned
   halves: the low half gets columns [0, hot_cols), the high half the rest. *)
let halves inp ~hot_cols =
  let ps = inp.geo.page_size in
  let mid = (inp.lo + ((inp.hi - inp.lo) / 2)) / ps * ps in
  let mid = if mid <= inp.lo then inp.lo + ps else mid in
  let placement var base size mask =
    {
      Layout.Partition.region =
        {
          Layout.Region.var;
          part = 0;
          parts = 1;
          offset = 0;
          size;
          summary = Profile.Lifetime.summary ~accesses:1.0 ~first:0 ~last:0 ();
        };
      base;
      columns = Some mask;
      role = Layout.Partition.Cached;
    }
  in
  {
    Layout.Partition.spec =
      Layout.Partition.spec_of_cache inp.geo.cache ~scratchpad_columns:0;
    placements =
      [
        placement "low" inp.lo (mid - inp.lo)
          (Cache.Bitmask.range ~lo:0 ~hi:(hot_cols - 1));
        placement "high" mid (inp.hi - mid)
          (Cache.Bitmask.range ~lo:hot_cols ~hi:(ways - 1));
      ];
    graph = Coloring.Graph.create ();
    colors = [||];
    residual_conflict = 0;
  }

let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* {1 The timed work} *)

let fig5_quanta = [ 1; 1024; 1048576 ]
let fig5_cache_kbs = [ 16; 128 ]
let sweep_splits = [ 4; 6 ]

type output =
  | Stats of Run_stats.t
  | Swept of {
      engine : Stack_dist.t;
      standard : Run_stats.t;
      splits : Run_stats.t list;
    }
  | Paper of {
      routines : Fig4_routines.series list;
      combined : Fig4_combined.t;
      fig5 : Fig5.series list;  (* one call, hence one point, per series *)
    }

(* The library calls of the current timed iteration, latest first: name,
   duration, and the host-speed calibration run right after the call (nan
   when none runs). *)
let steps : (string * float * float) list ref = ref []
let calibration : (unit -> float) ref = ref (fun () -> nan)

let step name f =
  let r, dt = time (fun () -> Span.with_ name f) in
  let c = !calibration () in
  steps := (name, dt, c) :: !steps;
  r

let some what = function
  | Some x -> x
  | None -> failwith (what ^ " returned None")

let sweep_standard ?requests inp =
  step "core.sweep_standard" (fun () ->
      Sweep.standard ?requests ~cache:inp.geo.cache ~timing:inp.geo.timing
        ~page_size:inp.geo.page_size ~tlb_entries [ inp.trace ])
  |> some "Sweep.standard"

let sweep_partitioned inp part =
  step "core.sweep_partitioned" (fun () ->
      Sweep.partitioned ~cache:inp.geo.cache ~timing:inp.geo.timing
        ~page_size:inp.geo.page_size ~tlb_entries ~part ~copy_in:[]
        [ inp.trace ])
  |> some "Sweep.partitioned"

let sharded inp =
  step "cache.of_packed_parallel" (fun () ->
      Stack_dist.of_packed_parallel ~jobs ~line_size
        ~sets:inp.geo.cache.Cache.Sassoc.sets ~max_ways:ways inp.trace)

(* Untimed preparation (fresh systems, partitions), then the timed thunk. *)
let iteration size name inp : unit -> output =
  match name with
  | "replay" ->
      let sys = system inp.geo in
      fun () ->
        Stats
          (step "machine.run_packed" (fun () ->
               System.run_packed sys inp.trace))
  | "traffic" ->
      let sys = system inp.geo in
      fun () ->
        Stats
          (step "machine.run_packed_requests_events" (fun () ->
               System.run_packed_requests_events sys
                 ~events:Machine.Event.default_config inp.trace
                 ~requests:inp.requests))
  | "sweep" ->
      let parts = List.map (fun hot_cols -> halves inp ~hot_cols) sweep_splits in
      fun () ->
        let engine = sharded inp in
        let standard = sweep_standard inp in
        let splits = List.map (sweep_partitioned inp) parts in
        Swept { engine; standard; splits }
  | _ ->
      let input_len = paper_input_len size in
      let cache_kbs = if size = Full then fig5_cache_kbs else [ 16 ] in
      fun () ->
        let routines = step "core.fig4_routines" Fig4_routines.run in
        let combined = step "core.fig4_combined" Fig4_combined.run in
        (* One call per Fig. 5 point pair (standard and mapped), so that
           each timed step stays short. *)
        let fig5 =
          List.concat_map
            (fun cache_kb ->
              List.concat_map
                (fun quantum ->
                  step "core.fig5_run" (fun () ->
                      Fig5.run ~quanta:[ quantum ] ~cache_kbs:[ cache_kb ]
                        ~input_len ()))
                fig5_quanta)
            cache_kbs
        in
        Paper { routines; combined; fig5 }

(* Accesses the timed work processed, and which of its steps processed
   them. *)
let processed inp out =
  let n = Packed.length inp.trace in
  match out with
  | Stats _ -> (n, fun _ -> true)
  | Swept { splits; _ } -> (n * (2 + List.length splits), fun _ -> true)
  | Paper { fig5; _ } ->
      let points =
        List.fold_left (fun acc s -> acc + List.length s.Fig5.points) 0 fig5
      in
      (n * points, String.equal "core.fig5_run")

let sim_cpi = function
  | Stats s -> Run_stats.cpi s
  | Swept { standard; _ } -> Run_stats.cpi standard
  | Paper { fig5; _ } ->
      let mapped =
        List.concat_map
          (fun s -> if s.Fig5.mapped then List.map snd s.Fig5.points else [])
          fig5
      in
      sum mapped /. float_of_int (List.length mapped)

(* {1 Output serialisation, for digests and equality checks} *)

let ints l = String.concat " " (List.map string_of_int l)

let functional (s : Run_stats.t) =
  let c = s.Run_stats.cache in
  [
    s.instructions;
    s.memory_accesses;
    s.scratchpad_accesses;
    s.tlb_hits;
    s.tlb_misses;
    s.l2_hits;
    s.l2_misses;
    s.prefetches;
    c.Cache.Stats.accesses;
    c.hits;
    c.misses;
    c.evictions;
    c.writebacks;
  ]

let latency_fields l =
  if Latency.is_empty l then "empty"
  else
    ints
      (Latency.count l :: Latency.sum l :: Latency.max_value l
      :: List.init 1001 (fun i -> Latency.percentile l (float_of_int i /. 10.0)))

(* What a closed-form sweep reproduces: everything but the three-C and
   per-way fill counters, which it reports as zeros. *)
let closed_form s =
  ints (s.Run_stats.cycles :: functional s)
  ^ " | " ^ latency_fields s.Run_stats.requests

let all_fields (s : Run_stats.t) =
  let c = s.cache in
  String.concat " | "
    [
      closed_form s;
      ints
        [
          s.mshr_merges;
          s.mshr_stalls;
          s.dram_row_hits;
          s.dram_row_conflicts;
          c.cold_misses;
          c.capacity_misses;
          c.conflict_misses;
        ];
      ints (Array.to_list c.fills_per_way);
    ]

let engine_fields e =
  ints (Array.to_list (Stack_dist.miss_curve e))
  ^ " | "
  ^ ints
      (List.concat_map
         (fun w ->
           [ Stack_dist.hits e ~ways:w; Stack_dist.evictions e ~ways:w;
             Stack_dist.writebacks e ~ways:w ])
         (List.init (Stack_dist.max_ways e) (fun i -> i + 1)))
  ^ " | "
  ^ ints
      [ Stack_dist.accesses e; Stack_dist.cold_misses e; Stack_dist.overflows e;
        Stack_dist.distinct_lines e ]

let output_fields = function
  | Stats s -> all_fields s
  | Swept { engine; standard; splits } ->
      String.concat "\n"
        (engine_fields engine :: all_fields standard :: List.map all_fields splits)
  | Paper { routines; combined; fig5; _ } ->
      let r =
        List.map
          (fun s ->
            s.Fig4_routines.routine ^ " "
            ^ ints
                (s.Fig4_routines.bytes
                :: List.concat_map
                     (fun p ->
                       Fig4_routines.
                         [ p.cache_columns; p.scratchpad_columns; p.cycles;
                           p.misses; p.uncached_regions ])
                     s.Fig4_routines.points))
          routines
      in
      let c =
        ints
          (combined.Fig4_combined.column_cache_cycles
          :: combined.Fig4_combined.standard_cache_cycles
          :: List.concat_map (fun (a, b) -> [ a; b ])
               combined.Fig4_combined.static_points)
      in
      let f =
        List.map
          (fun s ->
            Printf.sprintf "%s %d %b %s" s.Fig5.label s.Fig5.cache_kb
              s.Fig5.mapped
              (String.concat " "
                 (List.map (fun (q, cpi) -> Printf.sprintf "%d:%h" q cpi)
                    s.Fig5.points)))
          fig5
      in
      String.concat "\n" (r @ [ c ] @ f)

(* {1 Verification} *)

type verdict = {
  checks : (string * bool) list;
  digest_material : string;  (* every verified output, serialised *)
  p99 : int;  (* simulated p99 request latency, cycles *)
}

let engine_serial inp =
  let e =
    Stack_dist.create ~line_size ~sets:inp.geo.cache.Cache.Sassoc.sets
      ~max_ways:ways ()
  in
  Span.with_ "cache.access_packed" (fun () -> Stack_dist.access_packed e inp.trace);
  e

(* Cross-path equalities that need no pin, on the workload's own trace. *)
let verify inp reference =
  let requests = inp.requests in
  let blocking =
    Span.with_ "machine.run_packed_requests" (fun () ->
        System.run_packed_requests (system inp.geo) inp.trace ~requests)
  in
  let events =
    Span.with_ "machine.run_packed_requests_events" (fun () ->
        System.run_packed_requests_events (system inp.geo)
          ~events:Machine.Event.default_config inp.trace ~requests)
  in
  let untinted =
    Span.with_ "machine.run_packed_requests" (fun () ->
        System.run_packed_requests
          (system ~tinted:false inp.geo)
          inp.trace ~requests)
  in
  let swept = sweep_standard ~requests inp in
  let serial = engine_serial inp in
  let parallel = sharded inp in
  let checks =
    [
      ("event-core functional counts = blocking counts",
        functional events = functional blocking);
      ("Sweep.standard = untinted run_packed_requests",
        closed_form swept = closed_form untinted);
      ("sharded curve = serial curve",
        engine_fields parallel = engine_fields serial);
    ]
    @
    match reference with
    | Stats s when inp.geo.tint_job_a ->
        [ ("run_packed = run_packed_requests aggregates",
            functional s = functional blocking && s.cycles = blocking.cycles) ]
    | Stats s ->
        [ ("timed event replay = verification event replay",
            all_fields s = all_fields events) ]
    | Swept { engine; standard; _ } ->
        [
          ("timed sharded curve = serial curve",
            engine_fields engine = engine_fields serial);
          ("timed Sweep.standard = untinted run_packed",
            ints (standard.cycles :: functional standard)
            = ints (untinted.cycles :: functional untinted));
        ]
    | Paper _ -> []
  in
  let p99 =
    match reference with
    | Stats s when not (Latency.is_empty s.requests) -> Latency.p99 s.requests
    | _ -> Latency.p99 blocking.requests
  in
  {
    checks;
    digest_material =
      String.concat "\n"
        [ output_fields reference; all_fields blocking; all_fields events;
          all_fields untinted; engine_fields serial ];
    p99;
  }

let read_pins path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ name; hex ] -> Some (name, hex)
           | _ -> None)

(* {1 Heap peak during one timed iteration} *)

(* Sampled at the end of every major cycle and around the iteration. *)
let heap_peak = ref 0

let sample_heap () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  if words > !heap_peak then heap_peak := words

let heap_alarm = lazy (Gc.create_alarm sample_heap)

let with_heap_peak f =
  ignore (Lazy.force heap_alarm);
  heap_peak := 0;
  sample_heap ();
  let r = f () in
  sample_heap ();
  (r, float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1e6)

(* {1 Host-speed calibration} *)

(* Fixed work that calls no library code, so no change to the simulator can
   move it: filling and probing a Stdlib hash table of 200k keys. Of the
   kernels tried it tracked the host's slow phases best (NOTES.md, Noise).
   It runs in a helper process, so that its garbage never reaches the
   measured heap. *)
let calibrate keys =
  let h = Hashtbl.create 16 in
  Array.iter (fun k -> Hashtbl.replace h k k) keys;
  let x = ref 0 in
  Array.iter (fun k -> x := !x + Hashtbl.find h k) keys;
  ignore (Sys.opaque_identity !x)

(* Scaled host times are host times on a host where [calibrate] takes
   this long. *)
let calibration_reference_s = 0.05
let helper_flag = "--calibration-helper"

(* The helper: one timed [calibrate] per input line, until end of input. *)
let calibration_helper () =
  let keys = Array.init 200_000 (fun i -> (i * 2654435761) land 0xffffff) in
  (try
     while true do
       ignore (input_line stdin);
       Gc.full_major ();
       let (), d = time (fun () -> calibrate keys) in
       Printf.printf "%.17g\n%!" d
     done
   with End_of_file -> ());
  exit 0

(* Started on first use; [at_exit] closes its input and waits for it. *)
let helper =
  lazy
    (let exe = Sys.executable_name in
     Unix.open_process_args exe [| exe; helper_flag |])

let () =
  at_exit (fun () ->
      if Lazy.is_val helper then ignore (Unix.close_process (Lazy.force helper)))

let calibration_now () =
  let from_helper, to_helper = Lazy.force helper in
  output_string to_helper "go\n";
  flush to_helper;
  float_of_string (input_line from_helper)

(* {1 Per-layer passes (traced run)} *)

let pass_reps = 3

(* Fastest of [pass_reps] runs of [f (prep ())], each inside a span. *)
let pass name ~prep f =
  minimum
    (List.init pass_reps (fun _ ->
         let x = prep () in
         snd (time (fun () -> Span.with_ name (fun () -> f x)))))

let ns_per n s = s *. 1e9 /. float_of_int n

let mpeg_pipeline () =
  Pipeline.make ~init:Workloads.Mpeg.init
    ~cache:(Cache.Sassoc.config ~line_size ~size_bytes:2048 ~ways:4 ())
    Workloads.Mpeg.program

let routines = Workloads.Mpeg.routines

let layers inp ~gen_s ~map_s =
  let t = inp.trace and geo = inp.geo in
  let n = Packed.length t in
  let addrs = Packed.raw_addrs t and kinds = Packed.raw_kinds t in
  let kind i = Packed.kind_of_code (Char.code kinds.{i}) in
  let scan_s =
    pass "memtrace.scan" ~prep:ignore (fun () ->
        let gaps = Packed.raw_gaps t and tags = Packed.raw_tags t in
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + addrs.{i} + gaps.{i} + Char.code kinds.{i} + tags.{i}
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let tlb_misses = ref 0 in
  let translate_s =
    pass "vm.mask_of"
      ~prep:(fun () -> System.mapping (system geo))
      (fun m ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Vm.Mapping.mask_of m addrs.{i}))
        done;
        tlb_misses := Vm.Tlb.misses (Vm.Mapping.tlb m))
  in
  let masks =
    let m = System.mapping (system geo) in
    Array.init n (fun i -> Vm.Mapping.mask_of_quiet m addrs.{i})
  in
  let probe_stats = ref (Cache.Stats.create ~ways) in
  let probe_s =
    pass "cache.access_coded"
      ~prep:(fun () -> Cache.Sassoc.create geo.cache)
      (fun c ->
        for i = 0 to n - 1 do
          ignore
            (Cache.Sassoc.access_coded c ~mask:masks.(i) ~kind:(kind i)
               addrs.{i})
        done;
        probe_stats := Cache.Sassoc.stats c)
  in
  let sets = geo.cache.Cache.Sassoc.sets in
  let engine () = Stack_dist.create ~line_size ~sets ~max_ways:ways () in
  let serial = ref (engine ()) in
  let stack_s =
    pass "cache.access_packed" ~prep:engine (fun e ->
        Stack_dist.access_packed e t;
        serial := e)
  in
  let shard_engines = Array.init jobs (fun _ -> engine ()) in
  let shard_s =
    Array.mapi
      (fun shard e ->
        snd
          (time (fun () ->
               Span.with_ "cache.access_packed_sharded" (fun () ->
                   Stack_dist.access_packed_sharded e ~shards:jobs ~shard t))))
      shard_engines
  in
  let shard_accesses =
    Array.map (fun e -> float_of_int (Stack_dist.accesses e)) shard_engines
  in
  let merge_s =
    snd
      (time (fun () ->
           Span.with_ "cache.merge_into" (fun () ->
               for s = 1 to jobs - 1 do
                 Stack_dist.merge_into shard_engines.(0) shard_engines.(s)
               done)))
  in
  let fresh () = system geo in
  let blocking_s =
    pass "machine.run_packed" ~prep:fresh (fun sys ->
        ignore (System.run_packed sys t))
  in
  let events = ref None in
  let events_s =
    pass "machine.run_packed_events" ~prep:fresh (fun sys ->
        events :=
          Some
            (System.run_packed_events sys ~events:Machine.Event.default_config t))
  in
  let requests_s =
    pass "machine.run_packed_requests" ~prep:fresh (fun sys ->
        ignore (System.run_packed_requests sys t ~requests:inp.requests))
  in
  let prefix = min n 300_000 in
  let scalar_s =
    pass "machine.access"
      ~prep:(fun () -> (fresh (), Array.init prefix (Packed.get t)))
      (fun (sys, accesses) ->
        Array.iter (fun a -> ignore (System.access sys a)) accesses)
  in
  let rr_jobs =
    List.init 3 (fun j ->
        {
          Sched.Round_robin.name = string_of_int j;
          trace =
            Packed.to_trace (Packed.sub t ~pos:(j * (n / 3)) ~len:(prefix / 3));
        })
  in
  let switches = ref 0 in
  let rr_s =
    List.map
      (fun quantum ->
        let sys = fresh () in
        snd
          (time (fun () ->
               Span.with_ "sched.round_robin" (fun () ->
                   let o = Sched.Round_robin.run ~system:sys ~quantum rr_jobs in
                   switches := !switches + o.Sched.Round_robin.switches))))
      fig5_quanta
  in
  (* Pipeline passes: a fresh pipeline per measurement (it memoises), with
     what the measured call depends on computed first, untimed. *)
  let pipeline_pass name ~warm f =
    pass name
      ~prep:(fun () ->
        let p = mpeg_pipeline () in
        List.iter (warm p) routines;
        p)
      (fun p -> List.iter (f p) routines)
  in
  let meth = Pipeline.Profile_based in
  let interp_s =
    pipeline_pass "ir.packed_trace_of" ~warm:(fun _ _ -> ()) (fun p proc ->
        ignore (Pipeline.packed_trace_of p ~proc))
  in
  let summaries_s =
    pipeline_pass "profile.summaries"
      ~warm:(fun p proc -> ignore (Pipeline.trace_of p ~proc))
      (fun p proc -> ignore (Pipeline.summaries p ~proc ~meth))
  in
  let partition_s =
    pipeline_pass "layout.partition"
      ~warm:(fun p proc -> ignore (Pipeline.regions p ~proc ~meth))
      (fun p proc ->
        for scratchpad_columns = 0 to Pipeline.columns p do
          ignore (Pipeline.partition p ~proc ~scratchpad_columns ~meth)
        done)
  in
  let best_split_s =
    pipeline_pass "core.best_split"
      ~warm:(fun p proc ->
        ignore (Pipeline.packed_trace_of p ~proc);
        ignore (Pipeline.regions p ~proc ~meth))
      (fun p proc -> ignore (Pipeline.best_split p ~proc ~meth))
  in
  let sweep_standard_s =
    pass "core.sweep_standard" ~prep:ignore (fun () -> ignore (sweep_standard inp))
  in
  let sweep_partitioned_s =
    pass "core.sweep_partitioned"
      ~prep:(fun () -> halves inp ~hot_cols:(ways / 2))
      (fun part -> ignore (sweep_partitioned inp part))
  in
  let ev = Option.get !events in
  let fn = float_of_int n in
  let probe = !probe_stats in
  let max_shard = Array.fold_left max 0.0 shard_accesses in
  let mean_shard =
    Array.fold_left ( +. ) 0.0 shard_accesses /. float_of_int jobs
  in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  [
    ("memtrace.map_s", map_s, "s");
    ("workloads.gen_s", gen_s, "s");
    ("memtrace.scan_ns_per_access", ns_per n scan_s, "ns");
    ("vm.translate_ns_per_access", ns_per n translate_s, "ns");
    ("vm.tlb_miss_ratio", float_of_int !tlb_misses /. fn, "ratio");
    ("cache.probe_ns_per_access", ns_per n probe_s, "ns");
    ("cache.hit_ratio", ratio probe.Cache.Stats.hits probe.accesses, "ratio");
    ( "cache.writebacks_per_kaccess",
      1000.0 *. ratio probe.writebacks probe.accesses,
      "1/kaccess" );
    ("cache.stack_update_ns_per_access", ns_per n stack_s, "ns");
    ( "cache.cold_ratio",
      ratio (Stack_dist.cold_misses !serial) (Stack_dist.accesses !serial),
      "ratio" );
    ( "cache.distinct_lines",
      float_of_int (Stack_dist.distinct_lines !serial),
      "count" );
    ("cache.shard_pass_max_s", Array.fold_left max 0.0 shard_s, "s");
    ("cache.shard_imbalance", max_shard /. mean_shard, "ratio");
    ("cache.shard_merge_s", merge_s, "s");
    ("machine.blocking_ns_per_access", ns_per n blocking_s, "ns");
    (* An estimate from isolated passes, not from spans. *)
    ( "machine.blocking_self_ns_per_access",
      ns_per n (blocking_s -. translate_s -. probe_s),
      "ns-estimate" );
    ("machine.events_ns_per_access", ns_per n events_s, "ns");
    ("machine.requests_overhead_ratio", requests_s /. blocking_s, "ratio");
    ( "machine.mshr_stall_ratio",
      ratio ev.Run_stats.mshr_stalls ev.cache.Cache.Stats.misses,
      "ratio" );
    ( "machine.dram_row_hit_ratio",
      ratio ev.dram_row_hits (ev.dram_row_hits + ev.dram_row_conflicts),
      "ratio" );
    ("machine.scalar_access_ns", ns_per prefix scalar_s, "ns");
    ("sched.round_robin_s", sum rr_s /. float_of_int (List.length rr_s), "s");
    ("sched.switches", float_of_int !switches, "count");
    ("core.best_split_s", best_split_s, "s");
    ("core.sweep_standard_s", sweep_standard_s, "s");
    ("core.sweep_partitioned_s", sweep_partitioned_s, "s");
    ("ir.interp_s", interp_s, "s");
    ("profile.summaries_s", summaries_s, "s");
    ("layout.partition_s", partition_s, "s");
  ]

(* {1 Main} *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-38s %s %s\n" name (json_number v) unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) unit)
          metrics))

let () =
  if Array.exists (String.equal helper_flag) Sys.argv then calibration_helper ();
  let size = parse_args () in
  let name = !workload and seed = !seed and trace = !traced = 1 in
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  Span.enabled := trace;
  Span.workload := name;
  (* Untraced, each set-up is followed by a calibration, as each library
     call is below. *)
  let setups =
    List.init setup_reps (fun rep ->
        let s = setup size name ~seed ~rep in
        (s, if trace then nan else calibration_now ()))
  in
  let setups, setup_calibrations = List.split setups in
  let { inputs = inp; _ } = List.nth setups (setup_reps - 1) in
  let n = Packed.length inp.trace in
  Printf.printf
    "{\"manifest\": {\"workload\": %S, \"seed\": %d, \"size\": %S, \"nproc\": \
     %d, \"ocaml\": %S, \"flambda\": %S, \"git_rev\": %S, \"accesses\": %d, \
     \"domains\": %d, \"trace\": %b}}\n%!"
    name seed !size_arg
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !flambda !git_rev n jobs trace;
  (* The first iteration warms up and is the reference every timed
     iteration is compared with. *)
  let reference = Span.with_ "verify" (fun () -> iteration size name inp ()) in
  let verdict = Span.with_ "verify" (fun () -> verify inp reference) in
  let dig = Digest.to_hex (Digest.string verdict.digest_material) in
  Printf.printf "digest %s %s\n" name dig;
  let pin_checks =
    if size = Full && (seed = default_seed || name = "paper") then
      [ ( "pinned digest",
          List.assoc_opt name (read_pins pins_file) = Some dig ) ]
    else []
  in
  let checks = verdict.checks @ pin_checks in
  List.iter
    (fun (what, ok) -> Printf.printf "check %-48s %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let reference_fields = output_fields reference in
  let attempted = ref (List.length checks) in
  let failed = ref (List.length (List.filter (fun (_, ok) -> not ok) checks)) in
  (* One timed iteration, from a collected heap so that iterations do not
     pay for each other's garbage; [None] when it raised or its outputs
     differ from the reference. *)
  let timed ~root =
    Gc.full_major ();
    let thunk = iteration size name inp in
    incr attempted;
    steps := [];
    match time (fun () -> with_heap_peak (fun () -> Span.with_ root thunk)) with
    | (out, peak), wall when output_fields out = reference_fields ->
        Some (wall, peak, List.rev !steps)
    | _ ->
        incr failed;
        prerr_endline "iteration outputs differ from the reference";
        None
    | exception e ->
        incr failed;
        prerr_endline ("iteration raised " ^ Printexc.to_string e);
        None
  in
  let loop f =
    let start = now () in
    let rec go i acc =
      if i >= min_iterations && now () -. start >= !seconds then List.rev acc
      else go (i + 1) (f i @ acc)
    in
    go 0 []
  in
  let setup_s =
    median
      (List.map2
         (fun s c -> s.total_s *. calibration_reference_s /. c)
         setups setup_calibrations)
  in
  if not trace then begin
    calibration := calibration_now;
    let samples = loop (fun _ -> Option.to_list (timed ~root:"iteration")) in
    let peak_mb = List.fold_left max 0.0 (List.map (fun (_, peak, _) -> peak) samples) in
    let step_sum f st = sum (List.filter_map f st) in
    let unscaled = List.map (fun (_, _, st) -> step_sum (fun (_, d, _) -> Some d) st) samples in
    let calibrations = List.concat_map (fun (_, _, st) -> List.map (fun (_, _, c) -> c) st) samples in
    (* Host contention comes in phases, from seconds to minutes, that slow
       the same work by up to 1.8x; a phase can outlast a run. The
       calibration slows with it, so each step's time is scaled by
       [calibration_reference_s] over the calibration that follows it, and
       a time metric is the median over iterations of their scaled steps
       (NOTES.md). *)
    let scaled pred =
      median
        (List.map
           (fun (_, _, st) ->
             step_sum
               (fun (s, d, c) ->
                 if pred s then Some (d *. calibration_reference_s /. c) else None)
               st)
           samples)
    in
    let accesses, counted = processed inp reference in
    Printf.printf
      "iterations %d, library calls only, unscaled: fastest %.6f s, median \
       %.6f s, p90 %.6f s\n"
      (List.length samples) (minimum unscaled) (median unscaled)
      (percentile 0.9 unscaled);
    Printf.printf
      "calibration %d: fastest %.6f s, median %.6f s, reference %.3f s\n"
      (List.length calibrations) (minimum calibrations) (median calibrations)
      calibration_reference_s;
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
      [
        ("wall_s", scaled (fun _ -> true), "s");
        ( "maccess_per_s",
          float_of_int accesses /. scaled counted /. 1e6,
          "Maccess/s" );
        ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_mb, "MB");
        ("sim_cpi", sim_cpi reference, "cycles/instr");
        ("sim_p99_cycles", float_of_int verdict.p99, "cycles");
      ]
  end
  else begin
    (* Alternate untraced and traced iterations so drift hits both alike. *)
    let samples =
      loop (fun i ->
          Span.enabled := i mod 2 = 1;
          let r = timed ~root:"iteration" in
          Span.enabled := true;
          Option.to_list (Option.map (fun (w, _, _) -> (i mod 2 = 1, w)) r))
    in
    let walls traced_ =
      List.filter_map (fun (t, w) -> if t = traced_ then Some w else None) samples
    in
    let overhead = minimum (walls true) -. minimum (walls false) in
    let roots =
      List.filter (fun (s, _) -> s.Span.name = "iteration") (Span.self_times (Span.spans ()))
    in
    let harness_share =
      sum (List.map snd roots) /. sum (List.map (fun (s, _) -> Span.duration s) roots)
    in
    let gen_s = median (List.map (fun s -> s.gen_s) setups) in
    let map_s = median (List.map (fun s -> s.map_s) setups) in
    let layer_metrics = Span.with_ "layers" (fun () -> layers inp ~gen_s ~map_s) in
    let path =
      Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed)
    in
    Span.write path;
    Printf.printf "spans written to %s\n" path;
    List.iter
      (fun (span, (self, count)) ->
        Printf.printf "self %-40s %10.6f s over %d spans\n" span self count)
      (Span.self_by_name (Span.spans ()));
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
      (layer_metrics
      @ [
          ("trace.overhead_s", overhead, "s");
          ("trace.harness_self_share", harness_share, "ratio");
        ])
  end
