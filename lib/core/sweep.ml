module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask
module Stack_dist = Cache.Stack_dist
module Partition = Layout.Partition
module Region = Layout.Region
module Timing = Machine.Timing
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency

exception Infeasible

(* Byte ranges as parallel arrays, so membership is an allocation-free scan
   like [Machine.System]'s own region checks (there are at most a handful of
   pinned/uncached regions per partition). *)
type ranges = { bases : int array; limits : int array }

let no_ranges = { bases = [||]; limits = [||] }

let ranges_of l =
  {
    bases = Array.of_list (List.map fst l);
    limits = Array.of_list (List.map (fun (b, s) -> b + s) l);
  }

let in_ranges r addr =
  let n = Array.length r.bases in
  let rec go i =
    i < n
    && ((addr >= Array.unsafe_get r.bases i
        && addr < Array.unsafe_get r.limits i)
       || go (i + 1))
  in
  go 0

let page_fn page_size =
  if page_size > 0 && page_size land (page_size - 1) = 0 then (
    let shift = ref 0 in
    while 1 lsl !shift < page_size do
      incr shift
    done;
    let shift = !shift in
    fun addr -> addr lsr shift)
  else fun addr -> addr / page_size

(* Page -> column-group map values: a group index, or [pinned] for the pages
   of pinned scratchpad regions; [unclaimed] is the [find] default. *)
let pinned = -1
let unclaimed = min_int

(* Claim pages [base, base+size) for [group] in a page map; a page claimed
   by two different groups makes the decomposition infeasible. *)
let claim page_map ~page_size ~group base size =
  if size > 0 then
    let first = base / page_size in
    let last = (base + size - 1) / page_size in
    for page = first to last do
      let g = Cache.Int_table.Map.find page_map page ~default:unclaimed in
      if g = unclaimed then Cache.Int_table.Map.replace page_map page group
      else if g <> group then raise Infeasible
    done

(* The column group owning an access's page, or [pinned] for an in-range
   access to a pinned page; raises [Infeasible] for traffic the
   decomposition cannot attribute (see [eval]). *)
let[@inline] group_of page_map ~scratch page addr =
  match page_map with
  | None -> 0
  | Some map ->
      let g = Cache.Int_table.Map.find map page ~default:unclaimed in
      if g < 0 && (g <> pinned || not (in_ranges scratch addr)) then
        raise Infeasible;
      g

let feasible_cache cache =
  cache.Sassoc.policy = Cache.Policy.Lru && not cache.Sassoc.classify

(* What one configuration point decomposes into: byte ranges, the page ->
   column-group map ([None]: a single group takes all traffic, as in the
   unmapped baseline), the per-group way counts and the copy-in charge. *)
type plan = {
  scratch : ranges;
  uncached : ranges;
  page_map : Cache.Int_table.Map.t option;
  group_ways : int array;
  setup : int;
}

(* One pass over the packed traces: uncached references are recognized by
   byte range first (they bypass the TLB, as in the machine), every other
   access does a TLB lookup (with the same consecutive-same-page shortcut
   the machine's batched loop uses — a repeated lookup of the MRU page is an
   LRU identity, so those hits can be credited wholesale) and then feeds the
   stack-distance engine of the column group owning its page. Pages of
   pinned scratchpad regions map to group [-1]:
   {!Machine.System.pin_region} preloads the whole region into its columns
   and nothing else traffics them, so every in-range access is a guaranteed
   cache hit needing no engine (and out-of-range accesses to such a page
   would miss into the pinned columns — [Infeasible]). An access to a page
   the map does not claim is traffic the decomposition cannot attribute to
   an isolated group — [Infeasible]. The group engines leave out the
   cold-line memory: pricing reads misses, evictions and writebacks, never
   the cold/overflow split. *)
let eval ?translate ?requests ~cache ~timing ~page_size ~tlb_entries plan
    packed_list =
  let { scratch; uncached; page_map; group_ways; setup } = plan in
  let groups =
    Array.map
      (fun ways ->
        Stack_dist.create ?translate ~cold_lines:false
          ~line_size:cache.Sassoc.line_size ~sets:cache.Sassoc.sets
          ~max_ways:ways ())
      group_ways
  in
  let page_of = page_fn page_size in
  let page_table = Vm.Page_table.create ~page_size () in
  let tlb = Vm.Tlb.create ~entries:tlb_entries ~page_table in
  (* Request windows index the concatenation of the packed traces, exactly
     like [Machine.System.run_packed_requests] over the same stream. A
     request's latency is the sum of its accesses' per-access costs, which
     mirror the machine's scalar path arithmetically: gap + flat latency for
     uncached, gap + hit_cycles + the penalties of this access's own miss /
     writeback / TLB miss for everything else. Per-access miss and writeback
     outcomes come from {!Stack_dist.access_traced} at the group's
     associativity; the TLB outcome from the miss-counter delta around the
     real lookup (the consecutive-same-page memo is a guaranteed hit). *)
  let req =
    match requests with
    | None -> [||]
    | Some r ->
        Latency.check_spans "Sweep"
          ~length:
            (List.fold_left
               (fun acc p -> acc + Memtrace.Packed.length p)
               0 packed_list)
          r;
        r
  in
  let track = match requests with Some _ -> true | None -> false in
  let lat =
    Latency.Builder.create ~initial_capacity:(max 16 (Array.length req)) ()
  in
  let gi = ref 0 in
  let next_req = ref 0 in
  let in_window = ref false in
  let win_cycles = ref 0 in
  let n_total = ref 0 in
  let gap_sum = ref 0 in
  let n_uncached = ref 0 in
  let memo_hits = ref 0 in
  let last_page = ref min_int in
  List.iter
    (fun packed ->
      let n = Memtrace.Packed.length packed in
      let addrs = Memtrace.Packed.raw_addrs packed in
      let gaps = Memtrace.Packed.raw_gaps packed in
      let kinds = Memtrace.Packed.raw_kinds packed in
      n_total := !n_total + n;
      for i = 0 to n - 1 do
        let addr = Bigarray.Array1.unsafe_get addrs i in
        let gap = Bigarray.Array1.unsafe_get gaps i in
        gap_sum := !gap_sum + gap;
        (if
           track
           && (not !in_window)
           && !next_req < Array.length req
           && !gi = fst req.(!next_req)
         then begin
           in_window := true;
           win_cycles := 0
         end);
        let cost = ref gap in
        (if in_ranges uncached addr then begin
           incr n_uncached;
           cost := !cost + timing.Timing.uncached_cycles
         end
         else begin
           let page = page_of addr in
           (if page = !last_page then incr memo_hits
            else begin
              let m0 = Vm.Tlb.misses tlb in
              ignore (Vm.Tlb.lookup_page_quick tlb page);
              if Vm.Tlb.misses tlb <> m0 then
                cost := !cost + timing.Timing.tlb_miss_penalty;
              last_page := page
            end);
           cost := !cost + timing.Timing.hit_cycles;
           let g = group_of page_map ~scratch page addr in
           if g >= 0 then begin
             let kind =
               Memtrace.Packed.kind_of_code
                 (Char.code (Bigarray.Array1.unsafe_get kinds i))
             in
             if !in_window then begin
               let seen =
                 Stack_dist.access_traced (Array.unsafe_get groups g) ~kind
                   ~ways:(Array.unsafe_get group_ways g)
                   addr
               in
               if seen land 1 = 0 then
                 cost := !cost + timing.Timing.miss_penalty;
               if seen land 2 <> 0 then
                 cost := !cost + timing.Timing.writeback_penalty
             end
             else Stack_dist.access (Array.unsafe_get groups g) ~kind addr
           end
         end);
        (if !in_window then begin
           win_cycles := !win_cycles + !cost;
           if !gi = snd req.(!next_req) - 1 then begin
             Latency.Builder.push lat !win_cycles;
             in_window := false;
             incr next_req
           end
         end);
        incr gi
      done)
    packed_list;
  Vm.Tlb.note_hits tlb !memo_hits;
  let misses = ref 0 in
  let evictions = ref 0 in
  let writebacks = ref 0 in
  Array.iteri
    (fun g engine ->
      let ways = Array.unsafe_get group_ways g in
      misses := !misses + Stack_dist.misses engine ~ways;
      evictions := !evictions + Stack_dist.evictions engine ~ways;
      writebacks := !writebacks + Stack_dist.writebacks engine ~ways)
    groups;
  let resolved = !n_total - !n_uncached in
  let tlb_hits = Vm.Tlb.hits tlb in
  let tlb_misses = Vm.Tlb.misses tlb in
  let cycles =
    setup + !gap_sum
    + (resolved * timing.Timing.hit_cycles)
    + (!n_uncached * timing.Timing.uncached_cycles)
    + (!misses * timing.Timing.miss_penalty)
    + (!writebacks * timing.Timing.writeback_penalty)
    + (tlb_misses * timing.Timing.tlb_miss_penalty)
  in
  let stats = Cache.Stats.create ~ways:cache.Sassoc.ways in
  stats.Cache.Stats.accesses <- resolved;
  stats.Cache.Stats.hits <- resolved - !misses;
  stats.Cache.Stats.misses <- !misses;
  stats.Cache.Stats.evictions <- !evictions;
  stats.Cache.Stats.writebacks <- !writebacks;
  {
    Run_stats.instructions = !gap_sum + !n_total;
    cycles;
    memory_accesses = !n_total;
    (* [pin_region] does not register a machine scratchpad region; pinned
       traffic is ordinary (always-hitting) cached traffic *)
    scratchpad_accesses = 0;
    tlb_hits;
    tlb_misses;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
    cache = stats;
    requests =
      (if track then Latency.Builder.build lat else Latency.empty);
  }

(* Claim the pages of cached [(base, size, mask)] regions for one column
   group per distinct mask and return each group's way count. Each group is
   an isolated LRU cache only if its mask is non-empty and disjoint from
   every other group's and from [reserved] (the pinned scratchpad columns,
   whose preloaded lines would otherwise occupy group ways); otherwise
   [Infeasible]. *)
let claim_groups page_map ~page_size ~reserved regions =
  let masks = ref [] in
  List.iter
    (fun (base, size, mask) ->
      let group =
        match List.find_opt (fun (m, _) -> Bitmask.equal m mask) !masks with
        | Some (_, g) -> g
        | None ->
            let g = List.length !masks in
            masks := (mask, g) :: !masks;
            g
      in
      claim page_map ~page_size ~group base size)
    regions;
  let masks = List.rev_map fst !masks in
  ignore
    (List.fold_left
       (fun seen m ->
         if Bitmask.is_empty m || not (Bitmask.is_empty (Bitmask.inter m seen))
         then raise Infeasible;
         Bitmask.union m seen)
       reserved masks);
  Array.of_list (List.map Bitmask.count masks)

let evaluate ?translate ?requests ~cache ~timing ~page_size ~tlb_entries
    ~plan packed_list =
  if not (feasible_cache cache) then None
  else
    try
      Some
        (eval ?translate ?requests ~cache ~timing ~page_size ~tlb_entries
           (plan ()) packed_list)
    with Infeasible -> None

let standard ?translate ?requests ~cache ~timing ~page_size ~tlb_entries
    packed_list =
  evaluate ?translate ?requests ~cache ~timing ~page_size ~tlb_entries
    packed_list ~plan:(fun () ->
      {
        scratch = no_ranges;
        uncached = no_ranges;
        page_map = None;
        group_ways = [| cache.Sassoc.ways |];
        setup = 0;
      })

(* Raises [Infeasible] exactly where {!partitioned} reports [None]. *)
let decompose ~cache ~timing ~page_size ~part ~copy_in =
  let line_size = cache.Sassoc.line_size in
  let page_map = Cache.Int_table.Map.create 64 in
  let scratch = ref [] in
  let uncached = ref [] in
  let scratch_mask = ref Bitmask.empty in
  let cached = ref [] in
  let setup = ref 0 in
  List.iter
    (fun pl ->
      let region = pl.Partition.region in
      let base = pl.Partition.base in
      let size = region.Region.size in
      match (pl.Partition.role, pl.Partition.columns) with
      | Partition.Uncached, _ -> uncached := (base, size) :: !uncached
      | (Partition.Scratchpad | Partition.Cached), None -> raise Infeasible
      | Partition.Scratchpad, Some mask ->
          (* Same copy-in charge [Partition.apply] would issue; the
             machine folds it into the first run's cycle delta. *)
          if List.mem region.Region.var copy_in then begin
            let lines = (size + line_size - 1) / line_size in
            setup :=
              !setup
              + lines
                * (timing.Timing.hit_cycles + timing.Timing.miss_penalty)
          end;
          scratch := (base, size) :: !scratch;
          scratch_mask := Bitmask.union !scratch_mask mask;
          claim page_map ~page_size ~group:pinned base size
      | Partition.Cached, Some mask -> cached := (base, size, mask) :: !cached)
    part.Partition.placements;
  let group_ways =
    claim_groups page_map ~page_size ~reserved:!scratch_mask
      (List.rev !cached)
  in
  {
    scratch = ranges_of !scratch;
    uncached = ranges_of !uncached;
    page_map = Some page_map;
    group_ways;
    setup = !setup;
  }

let partitioned ~cache ~timing ~page_size ~tlb_entries ~part ~copy_in
    packed_list =
  evaluate ~cache ~timing ~page_size ~tlb_entries packed_list ~plan:(fun () ->
      decompose ~cache ~timing ~page_size ~part ~copy_in)

let masked ?requests ~cache ~timing ~page_size ~tlb_entries ~regions
    packed_list =
  evaluate ?requests ~cache ~timing ~page_size ~tlb_entries packed_list
    ~plan:(fun () ->
      let page_map = Cache.Int_table.Map.create 64 in
      let group_ways =
        claim_groups page_map ~page_size ~reserved:Bitmask.empty regions
      in
      {
        scratch = no_ranges;
        uncached = no_ranges;
        page_map = Some page_map;
        group_ways;
        setup = 0;
      })
