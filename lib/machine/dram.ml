(* Banked DRAM with open-row buffers and a bounded channel queue.

   Address mapping is row-interleaved: global row [addr / row_bytes] lands
   on bank [row mod banks], so a stream of consecutive rows spreads across
   banks while accesses inside one row stay open-row hits. Each bank is a
   single resource (one request at a time, FIFO by issue order); the
   channel admits at most [queue_depth] requests in flight at once, slots
   freeing in issue order. Service time is the open-row hit or row-conflict
   latency from {!Timing}; a cold bank (no open row yet) prices as a
   conflict, since it pays the activation either way. *)

type config = {
  banks : int;
  row_bytes : int;
  queue_depth : int;
}

let config ?(banks = 4) ?(row_bytes = 1024) ?(queue_depth = 8) () =
  if banks < 1 then invalid_arg "Dram.config: banks must be at least 1";
  if row_bytes < 1 then invalid_arg "Dram.config: row_bytes must be positive";
  if queue_depth < 1 then
    invalid_arg "Dram.config: queue_depth must be at least 1";
  { banks; row_bytes; queue_depth }

let default_config = config ()

type bank = {
  mutable open_row : int; (* -1 = no row open yet *)
  mutable next_free : int;
}

type t = {
  cfg : config;
  row_hit_cycles : int;
  row_conflict_cycles : int;
  bank_state : bank array;
  (* issue-ordered ring of completion times of in-flight requests *)
  ring : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable requests : int;
  mutable row_hits : int;
  mutable row_conflicts : int;
  mutable queue_stalls : int;
}

let create (timing : Timing.t) cfg =
  if timing.Timing.dram_row_hit_cycles < 1 then
    invalid_arg "Dram.create: dram_row_hit_cycles must be positive";
  if timing.Timing.dram_row_conflict_cycles < timing.Timing.dram_row_hit_cycles
  then
    invalid_arg
      "Dram.create: dram_row_conflict_cycles must be at least the row-hit \
       latency";
  {
    cfg;
    row_hit_cycles = timing.Timing.dram_row_hit_cycles;
    row_conflict_cycles = timing.Timing.dram_row_conflict_cycles;
    bank_state =
      Array.init cfg.banks (fun _ -> { open_row = -1; next_free = 0 });
    ring = Array.make cfg.queue_depth 0;
    ring_head = 0;
    ring_len = 0;
    requests = 0;
    row_hits = 0;
    row_conflicts = 0;
    queue_stalls = 0;
  }

type outcome = {
  start : int;
  finish : int;
  bank : int;
  row_hit : bool;
}

let request t ~now ~addr =
  if addr < 0 then invalid_arg "Dram.request: negative address";
  let row = addr / t.cfg.row_bytes in
  let bank = row mod t.cfg.banks in
  let row_id = row / t.cfg.banks in
  (* the channel queue bounds outstanding requests: when full, wait for the
     oldest in-flight request to complete *)
  let admitted =
    if t.ring_len = t.cfg.queue_depth then begin
      let oldest = t.ring.(t.ring_head) in
      t.ring_head <- (t.ring_head + 1) mod t.cfg.queue_depth;
      t.ring_len <- t.ring_len - 1;
      if oldest > now then begin
        t.queue_stalls <- t.queue_stalls + 1;
        oldest
      end
      else now
    end
    else now
  in
  let b = t.bank_state.(bank) in
  let start = Int.max admitted b.next_free in
  let row_hit = b.open_row = row_id in
  let service = if row_hit then t.row_hit_cycles else t.row_conflict_cycles in
  let finish = start + service in
  b.open_row <- row_id;
  b.next_free <- finish;
  let tail = (t.ring_head + t.ring_len) mod t.cfg.queue_depth in
  t.ring.(tail) <- finish;
  t.ring_len <- t.ring_len + 1;
  t.requests <- t.requests + 1;
  if row_hit then t.row_hits <- t.row_hits + 1
  else t.row_conflicts <- t.row_conflicts + 1;
  { start; finish; bank; row_hit }

type stats = {
  total : int;
  hits : int;
  conflicts : int;
  stalls : int;
}

let stats t =
  {
    total = t.requests;
    hits = t.row_hits;
    conflicts = t.row_conflicts;
    stalls = t.queue_stalls;
  }
