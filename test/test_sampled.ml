(* Tests for the SHARDS-style sampled stack-distance engine and the sampled
   evaluation paths built on it: exactness at rate 1.0, determinism,
   threshold monotonicity, the fixed-budget adaptation, and agreement of the
   float allocator with the exact one. *)

module Access = Memtrace.Access
module Stack_dist = Cache.Stack_dist
module Sampled = Cache.Stack_dist.Sampled

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Draws drop the LCG's low 8 bits: those cycle with a short period, and
   for most seeds [rand 4] on them never came up 0 between address draws,
   so those traces had no write. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 8) mod bound

(* Feed the same deterministic stream to any number of engines. *)
let replay ~accesses ~addr_space seed feed =
  let rand = lcg seed in
  for _ = 1 to accesses do
    let addr = rand addr_space in
    let kind = if rand 4 = 0 then Access.Write else Access.Read in
    feed ~kind addr
  done

let float_array_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* --- exactness at rate 1.0 --- *)

let test_rate_one_is_exact () =
  let exact = Stack_dist.create ~line_size:16 ~sets:32 ~max_ways:8 () in
  let sampled =
    Sampled.create ~seed:7 ~rate:1.0 ~line_size:16 ~sets:32 ~max_ways:8 ()
  in
  replay ~accesses:5000 ~addr_space:65536 42 (fun ~kind addr ->
      Stack_dist.access exact ~kind addr;
      Sampled.access sampled ~kind addr);
  check_int "all sets selected" 32 (Sampled.selected_sets sampled);
  check_bool "scale is 1" true (Sampled.scale sampled = 1.0);
  check_bool "effective rate is 1" true (Sampled.effective_rate sampled = 1.0);
  check_int "every access sampled" (Sampled.accesses sampled)
    (Sampled.sampled_accesses sampled);
  check_bool "mrc_est = exact mrc" true
    (float_array_equal (Sampled.mrc_est sampled) (Stack_dist.mrc exact));
  Array.iteri
    (fun i est ->
      check_bool
        (Printf.sprintf "miss_curve_est.(%d) exact" i)
        true
        (est = float_of_int (Stack_dist.miss_curve exact).(i)))
    (Sampled.miss_curve_est sampled);
  for ways = 1 to 8 do
    check_bool "misses_est exact" true
      (Sampled.misses_est sampled ~ways
      = float_of_int (Stack_dist.misses exact ~ways));
    check_bool "evictions_est exact" true
      (Sampled.evictions_est sampled ~ways
      = float_of_int (Stack_dist.evictions exact ~ways));
    check_bool "writebacks_est exact" true
      (Sampled.writebacks_est sampled ~ways
      = float_of_int (Stack_dist.writebacks exact ~ways))
  done

(* --- determinism --- *)

let test_determinism () =
  let make () =
    Sampled.create ~seed:99 ~rate:0.3 ~line_size:16 ~sets:64 ~max_ways:4 ()
  in
  let a = make () and b = make () in
  replay ~accesses:4000 ~addr_space:32768 5 (fun ~kind addr ->
      Sampled.access a ~kind addr;
      Sampled.access b ~kind addr);
  check_int "same selection" (Sampled.selected_sets a) (Sampled.selected_sets b);
  check_bool "identical raw curves" true
    (Sampled.raw_miss_curve a = Sampled.raw_miss_curve b);
  check_bool "identical estimates" true
    (float_array_equal (Sampled.mrc_est a) (Sampled.mrc_est b));
  (* a different seed picks a different subpopulation of sets *)
  let c =
    Sampled.create ~seed:100 ~rate:0.3 ~line_size:16 ~sets:64 ~max_ways:4 ()
  in
  let sel engine =
    List.filter (fun s -> Sampled.would_sample engine (s * 16)) (List.init 64 Fun.id)
  in
  check_bool "seed changes the sample" true (sel a <> sel c)

(* --- threshold monotonicity --- *)

(* Selection is a prefix of the sets ordered by (hash, index), so the sets
   selected at a lower rate must be a subset of those at any higher rate
   under the same seed. [would_sample] exposes the selection per address;
   set s owns address s * line_size. *)
let selected_indices engine ~sets ~line_size =
  List.filter
    (fun s -> Sampled.would_sample engine (s * line_size))
    (List.init sets Fun.id)

let qcheck_threshold_monotone =
  QCheck.Test.make ~name:"lower rate samples a subset of higher rate"
    ~count:100
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000))
    (fun (seed, r1, r2) ->
      let lo = 0.01 +. (float_of_int (min r1 r2) /. 1000. *. 0.98) in
      let hi = 0.01 +. (float_of_int (max r1 r2) /. 1000. *. 0.98) in
      let make rate =
        Sampled.create ~seed ~rate ~line_size:16 ~sets:128 ~max_ways:2 ()
      in
      let at_lo = selected_indices (make lo) ~sets:128 ~line_size:16 in
      let at_hi = selected_indices (make hi) ~sets:128 ~line_size:16 in
      List.for_all (fun s -> List.mem s at_hi) at_lo)

(* --- floors and budgets --- *)

let test_min_sets_floor () =
  let s =
    Sampled.create ~seed:3 ~min_sets:4 ~rate:0.001 ~line_size:16 ~sets:32
      ~max_ways:4 ()
  in
  check_bool "floor holds" true (Sampled.selected_sets s >= 4);
  check_bool "effective rate reported honestly" true
    (Sampled.effective_rate s
    = float_of_int (Sampled.selected_sets s) /. 32.)

let test_budget_eviction () =
  let sets = 64 in
  let s =
    Sampled.create ~seed:1 ~min_sets:2 ~budget:64 ~rate:0.5 ~line_size:16
      ~sets ~max_ways:4 ()
  in
  let initial = Sampled.selected_sets s in
  (* a huge scan: distinct lines accumulate until the budget forces set
     evictions, which lower the threshold below the nominal rate *)
  for i = 0 to 20000 do
    Sampled.access s ~kind:Access.Read (i * 16)
  done;
  check_bool "budget forced evictions" true (Sampled.set_evictions s > 0);
  check_bool "threshold lowered" true (Sampled.threshold s < Sampled.rate s);
  check_bool "selection shrank" true (Sampled.selected_sets s < initial);
  (* this scan has far more distinct lines than the budget, so adaptation
     must bottom out exactly at the min_sets floor — never below it *)
  check_int "evicted down to the floor, not through it" 2
    (Sampled.selected_sets s);
  check_bool "budget respected until the floor" true
    (Sampled.distinct_sampled_lines s <= 64
    || Sampled.selected_sets s = 2);
  let mrc = Sampled.mrc_est s in
  check_bool "mrc_est still anchored at 1" true (mrc.(0) = 1.0);
  Array.iter
    (fun r -> check_bool "mrc_est in [0,1]" true (r >= 0. && r <= 1.))
    mrc

(* --- estimate accuracy on a skewed trace --- *)

let test_sampled_accuracy () =
  let exact = Stack_dist.create ~line_size:16 ~sets:64 ~max_ways:8 () in
  let sampled =
    Sampled.create ~seed:0x5eed ~min_sets:4 ~rate:0.25 ~line_size:16 ~sets:64
      ~max_ways:8 ()
  in
  (* Zipf-flavoured reuse: square a uniform rank so low ranks dominate. *)
  let rand = lcg 77 in
  for _ = 1 to 30000 do
    let r = rand 1000 in
    let addr = r * r mod 65536 * 16 in
    let kind = if rand 4 = 0 then Access.Write else Access.Read in
    Stack_dist.access exact ~kind addr;
    Sampled.access sampled ~kind addr
  done;
  let em = Stack_dist.mrc exact and sm = Sampled.mrc_est sampled in
  let err = ref 0. in
  for w = 1 to 8 do
    err := !err +. abs_float (em.(w) -. sm.(w))
  done;
  let mean = !err /. 8. in
  check_bool
    (Printf.sprintf "mean abs miss-ratio error %.4f within 0.08" mean)
    true (mean <= 0.08)

(* --- float allocator generalization --- *)

let test_allocate_float_matches_int () =
  let curves =
    [
      ("a", [| 100; 50; 10; 5; 5 |]);
      ("b", [| 80; 40; 35; 30; 30 |]);
      ("c", [| 60; 60; 60; 60; 60 |]);
    ]
  in
  let as_float =
    List.map (fun (n, c) -> (n, Array.map float_of_int c)) curves
  in
  Alcotest.(check (list (pair string int)))
    "float allocator = int allocator on integral curves"
    (Layout.Mrc_alloc.allocate ~columns:5 curves)
    (Layout.Mrc_alloc.allocate_float ~columns:5 as_float);
  let alloc = Layout.Mrc_alloc.allocate ~columns:5 curves in
  check_bool "predicted misses agree" true
    (Layout.Mrc_alloc.predicted_misses_float as_float alloc
    = float_of_int (Layout.Mrc_alloc.predicted_misses curves alloc))

let test_allocate_float_on_sampled_curves () =
  (* End-to-end: per-tag sampled curves drive the allocator without the
     int quantization the exact path uses. *)
  let curves =
    [ ("x", [| 90.5; 30.25; 10.125; 10.125 |]); ("y", [| 70.; 65.; 20.; 19. |]) ]
  in
  let alloc = Layout.Mrc_alloc.allocate_float ~columns:3 curves in
  check_int "spends every column" 3
    (List.fold_left (fun acc (_, c) -> acc + c) 0 alloc);
  check_bool "every name allocated" true
    (List.for_all (fun (_, c) -> c >= 1) alloc)

let suites =
  [
    ( "cache.stack_dist.sampled",
      [
        Alcotest.test_case "rate 1.0 is exact" `Quick test_rate_one_is_exact;
        Alcotest.test_case "deterministic" `Quick test_determinism;
        QCheck_alcotest.to_alcotest qcheck_threshold_monotone;
        Alcotest.test_case "min_sets floor" `Quick test_min_sets_floor;
        Alcotest.test_case "budget eviction adapts threshold" `Quick
          test_budget_eviction;
        Alcotest.test_case "estimate accuracy" `Quick test_sampled_accuracy;
      ] );
    ( "layout.mrc_alloc.float",
      [
        Alcotest.test_case "float = int on integral curves" `Quick
          test_allocate_float_matches_int;
        Alcotest.test_case "fractional curves allocate" `Quick
          test_allocate_float_on_sampled_curves;
      ] );
  ]
