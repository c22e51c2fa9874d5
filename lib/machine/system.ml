module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask

type config = {
  cache : Sassoc.config;
  l2 : Sassoc.config option;
  timing : Timing.t;
  page_size : int;
  tlb_entries : int;
}

let config ?(timing = Timing.default) ?(page_size = 256) ?(tlb_entries = 32)
    ?l2 cache =
  { cache; l2; timing; page_size; tlb_entries }

type region = {
  base : int;
  size : int;
}

type t = {
  cfg : config;
  cache : Sassoc.t;
  l2 : Sassoc.t option;
  mapping : Vm.Mapping.t;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable prefetches : int;
  streaming_tints : (Vm.Tint.t, unit) Hashtbl.t;
  (* physical lines brought in by the prefetcher and not yet demanded:
     first use triggers the next prefetch (tagged prefetching) *)
  prefetch_tagged : (int, unit) Hashtbl.t;
  mutable scratchpads : region list;
  mutable uncached : region list;
  mutable frame_map : Vm.Frame_map.t option;
  mutable instructions : int;
  mutable cycles : int;
  mutable memory_accesses : int;
  mutable scratchpad_accesses : int;
  mutable pending_setup_cycles : int;
  mutable mshr_merges : int;
  mutable mshr_stalls : int;
  mutable dram_row_hits : int;
  mutable dram_row_conflicts : int;
  (* TLB counters live in the TLB itself; run deltas are snapshot-based. *)
}

let create cfg =
  {
    cfg;
    cache = Sassoc.create cfg.cache;
    l2 = Option.map Sassoc.create cfg.l2;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    streaming_tints = Hashtbl.create 4;
    prefetch_tagged = Hashtbl.create 64;
    mapping =
      Vm.Mapping.create ~tlb_entries:cfg.tlb_entries ~page_size:cfg.page_size
        ~columns:cfg.cache.Sassoc.ways ();
    scratchpads = [];
    uncached = [];
    frame_map = None;
    instructions = 0;
    cycles = 0;
    memory_accesses = 0;
    scratchpad_accesses = 0;
    pending_setup_cycles = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
  }

let mapping t = t.mapping
let l2_cache t = t.l2

let set_streaming t tint = Hashtbl.replace t.streaming_tints tint ()
let clear_streaming t tint = Hashtbl.remove t.streaming_tints tint
let is_streaming t tint = Hashtbl.mem t.streaming_tints tint
let set_frame_map t fm = t.frame_map <- Some fm
let frame_map t = t.frame_map

let physical t addr =
  match t.frame_map with None -> addr | Some fm -> Vm.Frame_map.translate fm addr
let cache t = t.cache
let timing t = t.cfg.timing
let page_size t = t.cfg.page_size

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size

let add_scratchpad t ~base ~size =
  if size <= 0 then invalid_arg "System.add_scratchpad: size must be positive";
  let r = { base; size } in
  if List.exists (overlaps r) t.scratchpads then
    invalid_arg "System.add_scratchpad: overlapping region";
  t.scratchpads <- r :: t.scratchpads

let in_region regions addr =
  List.exists (fun r -> addr >= r.base && addr < r.base + r.size) regions

let in_scratchpad t addr = in_region t.scratchpads addr
let in_uncached t addr = in_region t.uncached addr

let add_uncached t ~base ~size =
  if size <= 0 then invalid_arg "System.add_uncached: size must be positive";
  let r = { base; size } in
  if List.exists (overlaps r) t.scratchpads || List.exists (overlaps r) t.uncached
  then invalid_arg "System.add_uncached: overlapping region";
  t.uncached <- r :: t.uncached

let scratchpad_bytes t =
  List.fold_left (fun acc r -> acc + r.size) 0 t.scratchpads

let preload t ~base ~size =
  if size <= 0 then invalid_arg "System.preload: size must be positive";
  let line = t.cfg.cache.Sassoc.line_size in
  let first = base / line and last = (base + size - 1) / line in
  for l = first to last do
    if not (in_scratchpad t (l * line)) then begin
      let mask = Vm.Mapping.mask_of_quiet t.mapping (l * line) in
      ignore (Sassoc.access t.cache ~mask ~kind:Access.Read (physical t (l * line)))
    end
  done

let pin_region t ~base ~size ~mask ~tint =
  if Bitmask.is_empty mask then invalid_arg "System.pin_region: empty mask";
  let capacity =
    Bitmask.count mask * Sassoc.column_size_bytes t.cfg.cache
  in
  if size > capacity then
    invalid_arg
      (Printf.sprintf
         "System.pin_region: region (%d B) exceeds column capacity (%d B)"
         size capacity);
  ignore (Vm.Mapping.retint_region t.mapping ~base ~size tint);
  Vm.Mapping.remap_tint t.mapping tint mask;
  preload t ~base ~size

(* Setup charges accrue into a pending pot so that they land inside the
   NEXT run's delta (apply-then-run must see the cost). *)
let charge_cycles t n =
  if n < 0 then invalid_arg "System.charge_cycles: negative charge";
  t.pending_setup_cycles <- t.pending_setup_cycles + n

(* The cached half of one access, after VM resolution: cache lookup,
   optional L2, stream prefetch, cycle accounting. The TLB miss penalty is
   the caller's job (the scalar path and the batched loop account for it at
   different points). *)
let access_cached t ~addr ~kind ~mask ~tint =
  let timing = t.cfg.timing in
  let stats = Sassoc.stats t.cache in
  let wb_before = stats.Cache.Stats.writebacks in
  (* Stream prefetch (Section 2: a prefetch buffer carved out of the
     general cache). Tagged next-line prefetching: both a miss and the
     first use of a previously-prefetched line fetch the line after it —
     into the stream's own columns, overlapped with memory time (no extra
     latency in this model). Prefetching stops where the next line's mask
     differs (region boundary). *)
  let maybe_prefetch () =
    if Hashtbl.mem t.streaming_tints tint then begin
      let line = t.cfg.cache.Sassoc.line_size in
      let next = addr + line in
      let next_mask = Vm.Mapping.mask_of_quiet t.mapping next in
      let next_phys = physical t next in
      if
        Bitmask.equal next_mask mask
        && Sassoc.probe t.cache next_phys = None
      then begin
        ignore (Sassoc.fill t.cache ~mask next_phys);
        Hashtbl.replace t.prefetch_tagged (next_phys / line) ();
        t.prefetches <- t.prefetches + 1
      end
    end
  in
  let phys = physical t addr in
  let phys_line = phys / t.cfg.cache.Sassoc.line_size in
  match Sassoc.access t.cache ~mask ~kind phys with
  | Sassoc.Hit _ ->
      t.cycles <- t.cycles + timing.Timing.hit_cycles;
      if Hashtbl.mem t.prefetch_tagged phys_line then begin
        Hashtbl.remove t.prefetch_tagged phys_line;
        maybe_prefetch ()
      end
  | Sassoc.Miss _ ->
      t.cycles <- t.cycles + timing.Timing.hit_cycles;
      (* the line comes from L2 when one is configured and holds it *)
      (match t.l2 with
      | None -> t.cycles <- t.cycles + timing.Timing.miss_penalty
      | Some l2 -> (
          match Sassoc.access l2 ~kind phys with
          | Sassoc.Hit _ ->
              t.l2_hits <- t.l2_hits + 1;
              t.cycles <- t.cycles + timing.Timing.l2_hit_cycles
          | Sassoc.Miss _ ->
              t.l2_misses <- t.l2_misses + 1;
              t.cycles <- t.cycles + timing.Timing.miss_penalty));
      if stats.Cache.Stats.writebacks > wb_before then
        t.cycles <- t.cycles + timing.Timing.writeback_penalty;
      maybe_prefetch ()

(* One access, scalar reference path. *)
let access_scalar t ~addr ~kind ~gap =
  let timing = t.cfg.timing in
  t.instructions <- t.instructions + gap + 1;
  t.cycles <- t.cycles + gap;
  t.memory_accesses <- t.memory_accesses + 1;
  if in_scratchpad t addr then begin
    t.scratchpad_accesses <- t.scratchpad_accesses + 1;
    t.cycles <- t.cycles + timing.Timing.scratchpad_cycles
  end
  else if in_uncached t addr then
    t.cycles <- t.cycles + timing.Timing.uncached_cycles
  else begin
    let mask, tint, outcome = Vm.Mapping.resolve t.mapping addr in
    (match outcome with
    | Vm.Tlb.Hit -> ()
    | Vm.Tlb.Miss -> t.cycles <- t.cycles + timing.Timing.tlb_miss_penalty);
    access_cached t ~addr ~kind ~mask ~tint
  end

let access t (a : Access.t) =
  let before = t.cycles in
  access_scalar t ~addr:a.Access.addr ~kind:a.Access.kind ~gap:a.Access.gap;
  t.cycles - before

let snapshot t =
  {
    Run_stats.instructions = t.instructions;
    cycles = t.cycles;
    memory_accesses = t.memory_accesses;
    scratchpad_accesses = t.scratchpad_accesses;
    tlb_hits = Vm.Tlb.hits (Vm.Mapping.tlb t.mapping);
    tlb_misses = Vm.Tlb.misses (Vm.Mapping.tlb t.mapping);
    l2_hits = t.l2_hits;
    l2_misses = t.l2_misses;
    prefetches = t.prefetches;
    mshr_merges = t.mshr_merges;
    mshr_stalls = t.mshr_stalls;
    dram_row_hits = t.dram_row_hits;
    dram_row_conflicts = t.dram_row_conflicts;
    cache = Cache.Stats.copy (Sassoc.stats t.cache);
    requests = Latency.empty;
  }

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

(* Batched replay over packed columns. Byte-identical to folding [access]
   over the same accesses (the machine-level differential soak pins this),
   but organized around the invariant that during one replay the page table,
   tint table, regions, frame map and streaming set are all constant — only
   the TLB mutates, and only through our own lookups. Hence:

   - a small K-entry memo caches (page, tint, mask, streaming?) for recently
     seen pages. A memo hit is a guaranteed TLB hit — memo entries are
     invalidated whenever a real lookup evicts their page, so memoized
     implies resident — and costs no hash lookups at all: the hit is
     credited in bulk via [Tlb.note_hits] and its LRU touch is {e deferred}.
     A run of guaranteed hits only reorders the touched entries to the front
     of the LRU, so replaying one touch per memoized page, oldest last-use
     first ([Tlb.touch_resident]), immediately before the next real TLB
     operation reproduces the exact LRU state the per-access path builds;
   - tint -> mask is constant, so the tint-table lookup (a string-keyed
     hash) is memoized on the last tint seen;
   - counters accrue in local ints and land in [t]'s fields once at the end
     (every counter is a sum, so interleaving with the scalar path's direct
     field updates commutes).

   Pages overlapping a scratchpad/uncached region take the scalar path per
   access (the region test is per-address, not per-page) and are never
   memoized; the scalar path's resolve can evict any TLB entry, so the memo
   is cleared after it. Streaming pages and accesses while prefetch-tagged
   lines are outstanding use the always-correct [access_cached] cache path
   (the scalar hit path consults the tag table on every hit), but their TLB
   behaviour is one lookup per access just like any other page, so they
   memoize fine. *)
let replay_packed t (p : Memtrace.Packed.t) =
  let n = Memtrace.Packed.length p in
  if n > 0 then begin
    let addrs = Memtrace.Packed.raw_addrs p in
    let gaps = Memtrace.Packed.raw_gaps p in
    let kinds = Memtrace.Packed.raw_kinds p in
    let timing = t.cfg.timing in
    let hit_cycles = timing.Timing.hit_cycles in
    let miss_penalty = timing.Timing.miss_penalty in
    let l2_hit_cycles = timing.Timing.l2_hit_cycles in
    let writeback_penalty = timing.Timing.writeback_penalty in
    let tlb_miss_penalty = timing.Timing.tlb_miss_penalty in
    let cache = t.cache in
    let l2 = t.l2 in
    let fm = t.frame_map in
    let tlb = Vm.Mapping.tlb t.mapping in
    let tint_table = Vm.Mapping.tint_table t.mapping in
    let page_size = t.cfg.page_size in
    let page_shift = log2 page_size in
    (* local counters, flushed into [t] after the loop. Per-access constants
       are derived rather than accumulated: every non-scalar access
       contributes gap+1 instructions, one memory access and (on the plain
       cache path) hit_cycles — so the loop only tracks [gap_sum] and a few
       small counts, and the arithmetic happens once at the end *)
    let cycles = ref 0 in
    let gap_sum = ref 0 in
    let nonscalar_n = ref 0 in
    let crossing_n = ref 0 in
    let cached_n = ref 0 in
    let l2_hits = ref 0 in
    let l2_misses = ref 0 in
    (* direct-mapped page memo with deferred LRU touches: slot = low bits of
       the page number, one compare per probe. Collisions merely evict the
       memo entry (the next access to that page pays a real — and guaranteed
       to hit — TLB lookup); correctness never depends on memo capacity *)
    let memo_bits = 7 in
    let memo_size = 1 lsl memo_bits in
    let memo_mask = memo_size - 1 in
    let m_page = Array.make memo_size min_int in
    let m_seq = Array.make memo_size min_int in
    let m_mask = Array.make memo_size Bitmask.empty in
    let m_tint = Array.make memo_size Vm.Tint.default in
    let m_stream = Array.make memo_size false in
    let m_pending = Array.make memo_size false in
    (* slots with a deferred touch, in first-pending order; sorted by
       last-use seq at flush time *)
    let pending_slots = Array.make memo_size 0 in
    let pending_count = ref 0 in
    let flush_touches () =
      let c = !pending_count in
      if c > 0 then begin
        (* insertion sort by last-use seq, ascending; runs are short *)
        for a = 1 to c - 1 do
          let sl = pending_slots.(a) in
          let key = m_seq.(sl) in
          let b = ref (a - 1) in
          while !b >= 0 && m_seq.(pending_slots.(!b)) > key do
            pending_slots.(!b + 1) <- pending_slots.(!b);
            decr b
          done;
          pending_slots.(!b + 1) <- sl
        done;
        for a = 0 to c - 1 do
          let sl = pending_slots.(a) in
          m_pending.(sl) <- false;
          Vm.Tlb.touch_resident tlb m_page.(sl)
        done;
        pending_count := 0
      end
    in
    let drop_page page =
      let sl = page land memo_mask in
      if m_page.(sl) = page then begin
        m_page.(sl) <- min_int;
        m_seq.(sl) <- min_int
      end
    in
    let clear_memo () =
      Array.fill m_page 0 memo_size min_int;
      Array.fill m_seq 0 memo_size min_int;
      Array.fill m_pending 0 memo_size false;
      pending_count := 0
    in
    let last_tint = ref None in
    let last_mask = ref Bitmask.empty in
    let mask_of_tint tint =
      match !last_tint with
      | Some lt when Vm.Tint.equal lt tint -> !last_mask
      | _ ->
          let m = Vm.Tint_table.lookup tint_table tint in
          last_tint := Some tint;
          last_mask := m;
          m
    in
    let page_touches_region page =
      (t.scratchpads != [] || t.uncached != [])
      &&
      let base = page lsl page_shift in
      let hit r = r.base < base + page_size && base < r.base + r.size in
      List.exists hit t.scratchpads || List.exists hit t.uncached
    in
    (* the streaming set is constant during a replay, and with it empty no
       prefetch tag can ever be inserted — so if both tables are empty at
       entry the tag-aware cache path is unreachable for the whole replay *)
    let tags_possible =
      Hashtbl.length t.streaming_tints > 0
      || Hashtbl.length t.prefetch_tagged > 0
    in
    let fast_cache_access ~mask ~addr ~kind =
      let phys =
        match fm with None -> addr | Some fm -> Vm.Frame_map.translate fm addr
      in
      let code = Sassoc.access_coded cache ~mask ~kind phys in
      (* base hit_cycles charged arithmetically at the end *)
      if code <> 0 then begin
        (match l2 with
        | None -> cycles := !cycles + miss_penalty
        | Some l2c ->
            if Sassoc.access_coded l2c ~kind phys land 1 = 0 then begin
              incr l2_hits;
              cycles := !cycles + l2_hit_cycles
            end
            else begin
              incr l2_misses;
              cycles := !cycles + miss_penalty
            end);
        if code land 2 <> 0 then cycles := !cycles + writeback_penalty
      end
    in
    for i = 0 to n - 1 do
      let addr = Bigarray.Array1.unsafe_get addrs i in
      let gap = Bigarray.Array1.unsafe_get gaps i in
      let kind =
        match Bigarray.Array1.unsafe_get kinds i with
        | '\001' -> Access.Write
        | '\002' -> Access.Ifetch
        | _ -> Access.Read
      in
      let page = addr lsr page_shift in
      let j = page land memo_mask in
      if Array.unsafe_get m_page j = page then begin
        (* memoized page: guaranteed TLB hit (credited in bulk after the
           loop) with its LRU touch deferred *)
        Array.unsafe_set m_seq j i;
        if not (Array.unsafe_get m_pending j) then begin
          Array.unsafe_set m_pending j true;
          Array.unsafe_set pending_slots !pending_count j;
          incr pending_count
        end;
        gap_sum := !gap_sum + gap;
        incr nonscalar_n;
        if
          tags_possible
          && (Array.unsafe_get m_stream j
             || Hashtbl.length t.prefetch_tagged > 0)
        then begin
          incr cached_n;
          access_cached t ~addr ~kind
            ~mask:(Array.unsafe_get m_mask j)
            ~tint:(Array.unsafe_get m_tint j)
        end
        else fast_cache_access ~mask:(Array.unsafe_get m_mask j) ~addr ~kind
      end
      else if page_touches_region page then begin
        (* mixed page: scratchpad/uncached membership is per-address, and
           the scalar resolve can evict any TLB entry — drop the memo *)
        flush_touches ();
        access_scalar t ~addr ~kind ~gap;
        clear_memo ()
      end
      else begin
        (* memo miss on a pure page: settle deferred touches, then do the
           real lookup and install the page in the memo *)
        flush_touches ();
        let m0 = Vm.Tlb.misses tlb in
        let tint = Vm.Tlb.lookup_page_quick tlb page in
        let tlb_missed = Vm.Tlb.misses tlb <> m0 in
        if tlb_missed then begin
          let ev = Vm.Tlb.last_evicted tlb in
          if ev <> min_int then drop_page ev
        end;
        let mask = mask_of_tint tint in
        let stream =
          Hashtbl.length t.streaming_tints > 0
          && Hashtbl.mem t.streaming_tints tint
        in
        m_page.(j) <- page;
        m_seq.(j) <- i;
        m_mask.(j) <- mask;
        m_tint.(j) <- tint;
        m_stream.(j) <- stream;
        m_pending.(j) <- false;
        gap_sum := !gap_sum + gap;
        incr nonscalar_n;
        incr crossing_n;
        if tlb_missed then cycles := !cycles + tlb_miss_penalty;
        if tags_possible && (stream || Hashtbl.length t.prefetch_tagged > 0)
        then begin
          incr cached_n;
          access_cached t ~addr ~kind ~mask ~tint
        end
        else fast_cache_access ~mask ~addr ~kind
      end
    done;
    flush_touches ();
    (* non-scalar accesses: gap+1 instructions and one memory access each;
       the (nonscalar_n - cached_n) that took [fast_cache_access] each owe
       the base hit_cycles ([access_cached] charged its own); memoized
       accesses were exactly the non-crossing ones, all guaranteed hits *)
    t.instructions <- t.instructions + !gap_sum + !nonscalar_n;
    t.cycles <-
      t.cycles + !cycles + !gap_sum
      + ((!nonscalar_n - !cached_n) * hit_cycles);
    t.memory_accesses <- t.memory_accesses + !nonscalar_n;
    t.l2_hits <- t.l2_hits + !l2_hits;
    t.l2_misses <- t.l2_misses + !l2_misses;
    Vm.Tlb.note_hits tlb (!nonscalar_n - !crossing_n)
  end

let run_with t replay =
  let before = snapshot t in
  t.cycles <- t.cycles + t.pending_setup_cycles;
  t.pending_setup_cycles <- 0;
  replay ();
  let after = snapshot t in
  {
    Run_stats.instructions = after.instructions - before.instructions;
    cycles = after.cycles - before.cycles;
    memory_accesses = after.memory_accesses - before.memory_accesses;
    scratchpad_accesses =
      after.scratchpad_accesses - before.scratchpad_accesses;
    tlb_hits = after.tlb_hits - before.tlb_hits;
    tlb_misses = after.tlb_misses - before.tlb_misses;
    l2_hits = after.l2_hits - before.l2_hits;
    l2_misses = after.l2_misses - before.l2_misses;
    prefetches = after.prefetches - before.prefetches;
    mshr_merges = after.mshr_merges - before.mshr_merges;
    mshr_stalls = after.mshr_stalls - before.mshr_stalls;
    dram_row_hits = after.dram_row_hits - before.dram_row_hits;
    dram_row_conflicts = after.dram_row_conflicts - before.dram_row_conflicts;
    cache = Cache.Stats.sub after.cache before.cache;
    requests = Latency.empty;
  }

let run t trace =
  run_with t (fun () -> Trace.iter (fun a -> ignore (access t a)) trace)

let run_packed t packed = run_with t (fun () -> replay_packed t packed)

(* Replay with per-request latency accounting. Requests are (start, stop)
   access-index spans; the latency of a request is the cycle delta across
   its window, so setup charges (applied by [run_with] before the first
   access) and inter-request accesses never count against any request. The
   scalar path is used per access — the soak pins it byte-identical to the
   batched loop, so aggregate stats match [run_packed] exactly. *)
let run_packed_requests t (p : Memtrace.Packed.t) ~requests =
  let n = Memtrace.Packed.length p in
  Latency.check_spans "System.run_packed_requests" ~length:n requests;
  let addrs = Memtrace.Packed.raw_addrs p in
  let gaps = Memtrace.Packed.raw_gaps p in
  let kinds = Memtrace.Packed.raw_kinds p in
  let lat =
    Latency.Builder.create
      ~initial_capacity:(max 16 (Array.length requests))
      ()
  in
  let stats =
    run_with t (fun () ->
        let next_req = ref 0 in
        let window_start = ref 0 in
        let in_window = ref false in
        for i = 0 to n - 1 do
          (if (not !in_window) && !next_req < Array.length requests then
             let start, _ = requests.(!next_req) in
             if i = start then begin
               in_window := true;
               window_start := t.cycles
             end);
          let kind =
            Memtrace.Packed.kind_of_code
              (Char.code (Bigarray.Array1.unsafe_get kinds i))
          in
          access_scalar t
            ~addr:(Bigarray.Array1.unsafe_get addrs i)
            ~kind
            ~gap:(Bigarray.Array1.unsafe_get gaps i);
          if !in_window then begin
            let _, stop = requests.(!next_req) in
            if i = stop - 1 then begin
              Latency.Builder.push lat (t.cycles - !window_start);
              in_window := false;
              incr next_req
            end
          end
        done)
  in
  { stats with Run_stats.requests = Latency.Builder.build lat }

(* --- event-driven replay ------------------------------------------------ *)

(* The cached half of one access under the event engine. Functional state
   (cache contents, L2, prefetch fills and tags, every counter) is updated
   in exactly the order and through exactly the calls the scalar path
   makes, so all counts are byte-identical to [replay_packed] — the
   event-core differential soak pins this. Only time is priced differently:
   the engine overlaps fills through the MSHRs and the banked DRAM.
   Returns the access's retire time. *)
let event_cached t engine ~inject_merge_bug ~addr ~kind ~mask ~tint =
  let stats = Sassoc.stats t.cache in
  let wb_before = stats.Cache.Stats.writebacks in
  let line_size = t.cfg.cache.Sassoc.line_size in
  let maybe_prefetch () =
    if Hashtbl.mem t.streaming_tints tint then begin
      let next = addr + line_size in
      let next_mask = Vm.Mapping.mask_of_quiet t.mapping next in
      let next_phys = physical t next in
      if
        Bitmask.equal next_mask mask
        && Sassoc.probe t.cache next_phys = None
      then begin
        ignore (Sassoc.fill t.cache ~mask next_phys);
        Hashtbl.replace t.prefetch_tagged (next_phys / line_size) ();
        t.prefetches <- t.prefetches + 1;
        (* overlapped with the demand traffic, but it does occupy a bank *)
        Event.prefetch engine ~addr:next_phys
      end
    end
  in
  let phys = physical t addr in
  let phys_line = phys / line_size in
  match Sassoc.access t.cache ~mask ~kind phys with
  | Sassoc.Hit _ ->
      let retire, merged = Event.hit engine ~line:phys_line in
      (* The planted [--inject-bug event] mutation: the buggy merge path
         replays the merged request against the cache when its fill lands,
         as if the MSHR had not recorded the first reference — the second
         lookup double-counts the access. *)
      if merged && inject_merge_bug then
        ignore (Sassoc.access t.cache ~mask ~kind phys);
      if Hashtbl.mem t.prefetch_tagged phys_line then begin
        Hashtbl.remove t.prefetch_tagged phys_line;
        maybe_prefetch ()
      end;
      retire
  | Sassoc.Miss { evicted_line; _ } ->
      let l2_hit =
        match t.l2 with
        | None -> false
        | Some l2 -> (
            match Sassoc.access l2 ~kind phys with
            | Sassoc.Hit _ ->
                t.l2_hits <- t.l2_hits + 1;
                true
            | Sassoc.Miss _ ->
                t.l2_misses <- t.l2_misses + 1;
                false)
      in
      let victim =
        if stats.Cache.Stats.writebacks > wb_before then
          Option.map (fun line -> line * line_size) evicted_line
        else None
      in
      let retire =
        Event.miss engine ~line:phys_line ~addr:phys ~victim ~l2_hit
      in
      maybe_prefetch ();
      retire

(* One pass over a packed trace under the event engine. [on_access] (when
   given) receives, per access, the issue time (the core clock before the
   access's gap) and the retire time — the request-latency replay builds
   retire-minus-issue windows from it. *)
let replay_packed_events ?(inject_merge_bug = false) ?on_access t ~engine
    (p : Memtrace.Packed.t) =
  let n = Memtrace.Packed.length p in
  let addrs = Memtrace.Packed.raw_addrs p in
  let gaps = Memtrace.Packed.raw_gaps p in
  let kinds = Memtrace.Packed.raw_kinds p in
  let timing = t.cfg.timing in
  for i = 0 to n - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i in
    let gap = Bigarray.Array1.unsafe_get gaps i in
    let kind =
      match Bigarray.Array1.unsafe_get kinds i with
      | '\001' -> Access.Write
      | '\002' -> Access.Ifetch
      | _ -> Access.Read
    in
    let issue = Event.now engine in
    t.instructions <- t.instructions + gap + 1;
    t.memory_accesses <- t.memory_accesses + 1;
    Event.elapse engine gap;
    let retire =
      if in_scratchpad t addr then begin
        t.scratchpad_accesses <- t.scratchpad_accesses + 1;
        Event.elapse engine timing.Timing.scratchpad_cycles;
        Event.now engine
      end
      else if in_uncached t addr then begin
        Event.elapse engine timing.Timing.uncached_cycles;
        Event.now engine
      end
      else begin
        let mask, tint, outcome = Vm.Mapping.resolve t.mapping addr in
        (match outcome with
        | Vm.Tlb.Hit -> ()
        | Vm.Tlb.Miss ->
            Event.elapse engine timing.Timing.tlb_miss_penalty);
        event_cached t engine ~inject_merge_bug ~addr ~kind ~mask ~tint
      end
    in
    match on_access with None -> () | Some f -> f i ~issue ~retire
  done

(* Fold the engine's drained clock and its MSHR/DRAM counters into [t] so
   run deltas pick them up like any other counter. *)
let settle_events t engine =
  t.cycles <- t.cycles + Event.finish engine;
  t.mshr_merges <- t.mshr_merges + Event.merges engine;
  t.mshr_stalls <- t.mshr_stalls + Event.mshr_stalls engine;
  let d = Event.dram_stats engine in
  t.dram_row_hits <- t.dram_row_hits + d.Dram.hits;
  t.dram_row_conflicts <- t.dram_row_conflicts + d.Dram.conflicts

let run_packed_events ?inject_merge_bug t ~events p =
  let engine = Event.create t.cfg.timing events in
  run_with t (fun () ->
      replay_packed_events ?inject_merge_bug t ~engine p;
      settle_events t engine)

let run_packed_requests_events t ~events (p : Memtrace.Packed.t) ~requests =
  Latency.check_spans "System.run_packed_requests_events"
    ~length:(Memtrace.Packed.length p) requests;
  let engine = Event.create t.cfg.timing events in
  let lat =
    Latency.Builder.create
      ~initial_capacity:(max 16 (Array.length requests))
      ()
  in
  let stats =
    run_with t (fun () ->
        let next_req = ref 0 in
        let in_window = ref false in
        let window_issue = ref 0 in
        let window_retire = ref 0 in
        replay_packed_events t ~engine p
          ~on_access:(fun i ~issue ~retire ->
            (if (not !in_window) && !next_req < Array.length requests then
               let start, _ = requests.(!next_req) in
               if i = start then begin
                 in_window := true;
                 window_issue := issue;
                 window_retire := issue
               end);
            if !in_window then begin
              if retire > !window_retire then window_retire := retire;
              let _, stop = requests.(!next_req) in
              if i = stop - 1 then begin
                (* retire-minus-issue: overlapped misses inside the window
                   count once, not as a sum of per-access stall costs *)
                Latency.Builder.push lat (!window_retire - !window_issue);
                in_window := false;
                incr next_req
              end
            end);
        settle_events t engine)
  in
  { stats with Run_stats.requests = Latency.Builder.build lat }

let run_trace t trace = run_packed t (Memtrace.Packed.of_trace trace)

let total t = snapshot t
let flush_cache t = Sassoc.flush t.cache
let flush_tlb t = Vm.Tlb.flush (Vm.Mapping.tlb t.mapping)
