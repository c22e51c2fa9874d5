module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask
module Access = Memtrace.Access
module Prng = Workloads.Prng

let tint_names = [ "blue"; "green"; "yellow"; "purple"; "orange" ]

let mask rng ~ways =
  let m =
    List.fold_left
      (fun m w -> if Prng.chance rng 0.4 then Bitmask.add m w else m)
      Bitmask.empty
      (List.init ways Fun.id)
  in
  if Bitmask.is_empty m then Bitmask.singleton (Prng.int rng ways) else m

let gen_ways rng =
  (* Small geometries collide hardest; the tail still reaches the maximum
     so wide-mask paths are exercised. *)
  let r = Prng.int rng 100 in
  if r < 70 then Prng.int_in rng ~lo:1 ~hi:4
  else if r < 90 then Prng.int_in rng ~lo:5 ~hi:8
  else Prng.choose rng [ 16; 32; Bitmask.max_columns ]

let gen_policy rng =
  match Prng.int rng 4 with
  | 0 -> Cache.Policy.Lru
  | 1 -> Cache.Policy.Fifo
  | 2 -> Cache.Policy.Bit_plru
  | _ -> Cache.Policy.Random (Prng.int_in rng ~lo:1 ~hi:1_000_000)

let scenario ?ways ?policy ?(max_events = 160) rng =
  let ways = match ways with Some w -> w | None -> gen_ways rng in
  let policy = match policy with Some p -> p | None -> gen_policy rng in
  let sets = Prng.choose rng [ 1; 2; 4; 8; 16 ] in
  let line_size = Prng.choose rng [ 8; 16; 32 ] in
  let cache =
    { Sassoc.line_size; sets; ways; policy; classify = Prng.bool rng }
  in
  let page_size = Prng.choose rng [ 64; 128; 256 ] in
  let tlb_entries = Prng.int_in rng ~lo:1 ~hi:6 in
  let n_tints = 2 + Prng.int rng 3 in
  let tints = List.filteri (fun i _ -> i < n_tints) tint_names in
  (* Confine addresses to a few pages so that TLB evictions, set conflicts
     and re-tints of live pages all actually happen. *)
  let span = (2 + Prng.int rng 6) * page_size in
  let n_events = 10 + Prng.int rng (max 1 (max_events - 10)) in
  let event () =
    let r = Prng.int rng 100 in
    if r < 80 then
      let addr = 4 * Prng.int rng (span / 4) in
      let kind = if Prng.chance rng 0.3 then Access.Write else Access.Read in
      Scenario.Access (Access.make ~kind ~gap:(Prng.int rng 4) addr)
    else if r < 88 then
      Scenario.Remap { tint = Prng.choose rng tints; mask = mask rng ~ways }
    else if r < 96 then
      Scenario.Retint
        {
          base = Prng.int rng span;
          size = 1 + Prng.int rng (2 * page_size);
          tint = Prng.choose rng tints;
        }
    else if r < 98 then Scenario.Flush_tlb
    else Scenario.Flush_cache
  in
  (* Lead with a few remaps so restricted masks are in force from the first
     access, not only once a random remap happens to fire. *)
  let preamble =
    List.map
      (fun tint -> Scenario.Remap { tint; mask = mask rng ~ways })
      (Prng.subset rng ~keep:0.7 tints)
  in
  let body = List.init n_events (fun _ -> event ()) in
  { Scenario.cache; page_size; tlb_entries; events = preamble @ body }

(* Traffic-shaped scenario: the access stream comes from a seeded
   {!Workloads.Gen} distribution — Zipf, drifting hot sets, scans, phased
   mixtures — instead of uniform address noise, with reconfiguration events
   interleaved so masks and tints still churn under realistic locality.
   Every stream shape carries a Zipf component so the [perturb] hook (the
   [--inject-bug gen] mutation: ranks shifted past the declared range) is
   always detectable. Returns the scenario and the generator's declared
   address limit; the soak checks every access stays in [0, limit). *)
let traffic_scenario ?ways ?policy ?(max_events = 160) ?(perturb = false) rng
    =
  let ways = match ways with Some w -> w | None -> gen_ways rng in
  let policy = match policy with Some p -> p | None -> gen_policy rng in
  let sets = Prng.choose rng [ 2; 4; 8; 16 ] in
  let line_size = Prng.choose rng [ 8; 16; 32 ] in
  let cache =
    { Sassoc.line_size; sets; ways; policy; classify = Prng.bool rng }
  in
  let page_size = Prng.choose rng [ 64; 128; 256 ] in
  let tlb_entries = Prng.int_in rng ~lo:1 ~hi:6 in
  let items = 16 + Prng.int rng 113 in
  let theta = 0.6 +. (0.1 *. float_of_int (Prng.int rng 6)) in
  let zipf = Workloads.Gen.Zipf { items; theta } in
  let stream =
    match Prng.int rng 4 with
    | 0 -> zipf
    | 1 ->
        Workloads.Gen.Phased
          [ (30, zipf); (20, Workloads.Gen.Scan { items }) ]
    | 2 ->
        Workloads.Gen.Phased
          [
            (25, zipf);
            ( 25,
              Workloads.Gen.Hot_set
                {
                  items;
                  hot_items = max 1 (items / 8);
                  hot_prob = 0.9;
                  drift_every = 40;
                } );
          ]
    | _ ->
        Workloads.Gen.Phased
          [ (20, Workloads.Gen.Uniform { items }); (40, zipf) ]
  in
  let n = 40 + Prng.int rng (max 1 (max_events - 40)) in
  let trace =
    Workloads.Gen.emit ~perturb ~stride:line_size
      ~seed:(Prng.int rng 1_000_000) ~n stream
  in
  let limit = trace.Workloads.Gen.limit in
  let n_tints = 2 + Prng.int rng 3 in
  let tints = List.filteri (fun i _ -> i < n_tints) tint_names in
  let reconfig () =
    let r = Prng.int rng 100 in
    if r < 45 then
      Scenario.Remap { tint = Prng.choose rng tints; mask = mask rng ~ways }
    else if r < 85 then
      Scenario.Retint
        {
          base = Prng.int rng limit;
          size = 1 + Prng.int rng (2 * page_size);
          tint = Prng.choose rng tints;
        }
    else if r < 95 then Scenario.Flush_tlb
    else Scenario.Flush_cache
  in
  let preamble =
    List.map
      (fun tint -> Scenario.Remap { tint; mask = mask rng ~ways })
      (Prng.subset rng ~keep:0.7 tints)
  in
  let body = ref [] in
  Memtrace.Packed.iter
    (fun a ->
      if Prng.chance rng 0.08 then body := reconfig () :: !body;
      body := Scenario.Access a :: !body)
    trace.Workloads.Gen.packed;
  ( {
      Scenario.cache;
      page_size;
      tlb_entries;
      events = preamble @ List.rev !body;
    },
    limit )

let trace ?(max_len = 64) rng =
  let n = Prng.int rng (max_len + 1) in
  let builder = Memtrace.Trace.Builder.create () in
  for _ = 1 to n do
    let kind =
      match Prng.int rng 3 with
      | 0 -> Access.Read
      | 1 -> Access.Write
      | _ -> Access.Ifetch
    in
    let var =
      match Prng.int rng 4 with
      | 0 -> Some "a"
      | 1 -> Some "buf"
      | 2 -> Some "x_y.z"
      | _ -> None
    in
    Memtrace.Trace.Builder.add builder
      (Access.make ~kind ?var ~gap:(Prng.int rng 8) (Prng.int rng 0x10000))
  done;
  Memtrace.Trace.Builder.build builder
