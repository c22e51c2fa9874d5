type outcome =
  | Hit
  | Miss

type t = {
  page_table : Page_table.t;
  lru : Cache.Lru_set.t;
  (* tint snapshot of each resident page, indexed by its LRU slot *)
  tints : Tint.t array;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable entry_flushes : int;
  (* page evicted by the most recent lookup miss; [min_int] when it hit or
     evicted nothing. Lets the batched replay invalidate its page memo
     without allocating an option per lookup. *)
  mutable last_evicted : int;
}

let create ~entries ~page_table =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    page_table;
    lru = Cache.Lru_set.create ~capacity:entries;
    tints = Array.make entries Tint.default;
    hits = 0;
    misses = 0;
    flushes = 0;
    entry_flushes = 0;
    last_evicted = min_int;
  }

(* The per-access entry the machine's batched replay loop uses: one index
   probe on a hit, and no allocation either way. The outcome is observable
   as a delta on [misses]. *)
let lookup_page_quick t page =
  let s = Cache.Lru_set.slot t.lru page in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    t.last_evicted <- min_int;
    Cache.Lru_set.promote t.lru s;
    Array.unsafe_get t.tints s
  end
  else begin
    t.misses <- t.misses + 1;
    let tint = Page_table.tint_of_page t.page_table page in
    let s = Cache.Lru_set.insert t.lru page in
    t.last_evicted <- Cache.Lru_set.evicted t.lru;
    Array.unsafe_set t.tints s tint;
    tint
  end

let lookup_page t page =
  let m0 = t.misses in
  let tint = lookup_page_quick t page in
  (tint, if t.misses = m0 then Hit else Miss)

let lookup t addr = lookup_page t (Page_table.page_of_addr t.page_table addr)
let last_evicted t = t.last_evicted

(* Re-apply the LRU touch of a page that is guaranteed resident, without
   counting a hit (the hit was credited in bulk via [note_hits]). The
   batched replay defers touches of its memoized pages and replays them in
   last-use order before any real lookup: a sequence of hits only reorders
   the touched entries to the front, so touching each once, oldest last-use
   first, reproduces the exact LRU state. *)
let touch_resident t page =
  let s = Cache.Lru_set.slot t.lru page in
  assert (s >= 0);
  Cache.Lru_set.promote t.lru s

(* Credit [n] hits without performing the lookups. Only sound when every
   skipped lookup is guaranteed to hit AND to leave the LRU state unchanged
   — i.e. repeated references to the page that is already most recently
   used, where [Lru_set.touch] is the identity. The machine's batched
   replay uses this for runs of consecutive same-page accesses. *)
let note_hits t n =
  if n < 0 then invalid_arg "Tlb.note_hits: negative count";
  t.hits <- t.hits + n

let flush t =
  Cache.Lru_set.clear t.lru;
  t.flushes <- t.flushes + 1

let flush_page t page =
  let present = Cache.Lru_set.remove t.lru page in
  if present then t.entry_flushes <- t.entry_flushes + 1;
  present

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let entry_flushes t = t.entry_flushes
let resident_pages t = Cache.Lru_set.to_list t.lru
let capacity t = Cache.Lru_set.capacity t.lru
