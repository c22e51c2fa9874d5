(** Closed-form experiment points via stack distances.

    The sweep-shaped experiments evaluate many cache configurations over the
    same traces. When the L1 is a true LRU column cache with no L2 and no
    stream prefetching, a whole configuration point is computable without a
    machine replay:

    - the cache side comes from {!Cache.Stack_dist} engines — one per group
      of columns that traffic is confined to, each an isolated LRU cache
      with the full set count and [popcount mask] ways;
    - the TLB side is replayed exactly (it is virtually indexed, so it is
      independent of the cache geometry and of physical frame placement),
      with scratchpad and uncached references bypassing it as the machine
      does;
    - cycles then follow arithmetically from the default timing model:
      every access costs its gap, resolved accesses cost [hit_cycles] plus
      the penalties of their misses, writebacks and TLB misses, and
      scratchpad/uncached accesses cost their flat latencies.

    All three entry points decompose their configuration into column groups
    and run the same single pass over the traces. Each returns [None] —
    caller falls back to exact {!Machine.System.run_packed} replay — for
    anything the algebra cannot express: non-LRU policies, miss
    classification, traffic whose column mask overlaps another group's (it
    would not be an isolated LRU cache), or pages shared between
    placements. The equality with exact replay is pinned by the
    [core.sweep] tests field-for-field (the three-C and per-way fill
    counters are reported as zeros; nothing in the sweeps consumes them). *)

val standard :
  ?translate:(int -> int) ->
  ?requests:(int * int) array ->
  cache:Cache.Sassoc.config ->
  timing:Machine.Timing.t ->
  page_size:int ->
  tlb_entries:int ->
  Memtrace.Packed.t list ->
  Machine.Run_stats.t option
(** The unmapped baseline: every access resolves through the TLB and the
    full-mask cache. Equals replaying the packed traces back to back on one
    fresh no-L2 system. [translate] is a physical frame placement (page
    coloring); it reindexes the cache but not the TLB. [None] unless the
    policy is LRU without classification.

    [requests] are [(start, stop)] access-index spans over the concatenation
    of the packed traces (sorted, disjoint); when given, the result's
    [requests] field carries the per-request latency distribution, equal to
    what {!Machine.System.run_packed_requests} reports for the same spans —
    per-access miss and writeback outcomes come from
    {!Cache.Stack_dist.access_traced}, so the distribution is exact, not
    estimated. Raises [Invalid_argument] on malformed spans
    ({!Machine.Latency.check_spans}). *)

val partitioned :
  cache:Cache.Sassoc.config ->
  timing:Machine.Timing.t ->
  page_size:int ->
  tlb_entries:int ->
  part:Layout.Partition.t ->
  copy_in:string list ->
  Memtrace.Packed.t list ->
  Machine.Run_stats.t option
(** One scratchpad/cache split point: equals [Partition.apply ~copy_in] on a
    fresh system followed by replaying the packed traces back to back.
    Scratchpad placements are preloaded into their pinned columns, which no
    other traffic enters, so every in-range access to them is a guaranteed
    cache hit (resolved through the TLB like any other access — the machine
    registers no scratchpad region for pins); only the TLB outcome and the
    copy-in charge {!Layout.Partition.apply} would issue remain to account.
    Cached placements become one engine per distinct column mask. [None]
    when a group's columns overlap another's, when an access lands on a
    page no placement claims (default-tint traffic shares columns with
    every group), when an access hits a scratchpad-tinted page outside the
    pinned byte range, or for non-LRU/classifying caches. *)

val masked :
  ?requests:(int * int) array ->
  cache:Cache.Sassoc.config ->
  timing:Machine.Timing.t ->
  page_size:int ->
  tlb_entries:int ->
  regions:(int * int * Cache.Bitmask.t) list ->
  Memtrace.Packed.t list ->
  Machine.Run_stats.t option
(** Column isolation without a {!Layout.Partition}: each [(base, size,
    mask)] region confines its pages' traffic to the columns of [mask] —
    the closed form of retinting a region and mapping its tint to [mask] on
    a fresh system (see [Vm.Mapping.retint_region] / [remap_tint]). Regions
    sharing a mask share one engine, exactly as {!partitioned}'s cached
    placements do; [None] when masks overlap, a page is claimed by two
    groups, or an access lands on an unclaimed page. [requests] as in
    {!standard}. *)
