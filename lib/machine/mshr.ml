(* A miss-status holding register file as a pure timing structure: each
   entry remembers which cache line it is filling and when the fill
   completes. The functional cache state is updated in program order by the
   caller (the line is resident the instant the miss is processed), so the
   MSHR never affects hit/miss outcomes — only when requests retire. *)

type t = {
  size : int;
  lines : int array; (* line being filled by each slot; min_int = never used *)
  fill_done : int array; (* completion time of each slot's fill *)
  mutable allocations : int;
  mutable merges : int;
  mutable stalls : int;
}

let create ~size =
  if size < 1 then invalid_arg "Mshr.create: size must be at least 1";
  {
    size;
    lines = Array.make size min_int;
    fill_done = Array.make size min_int;
    allocations = 0;
    merges = 0;
    stalls = 0;
  }

let size t = t.size

(* A line is in flight when some slot is filling it and the fill has not
   yet completed at [now]. Later commits for the same line overwrite older
   (already completed) entries only by slot reuse, so scanning for any
   not-yet-done entry is exact. *)
let in_flight t ~now ~line =
  let rec go i =
    if i >= t.size then None
    else if t.lines.(i) = line && t.fill_done.(i) > now then
      Some t.fill_done.(i)
    else go (i + 1)
  in
  go 0

let note_merge t = t.merges <- t.merges + 1

(* Earliest slot available at or after [now]: a free slot (fill already
   done) is immediate; otherwise the request waits for the slot that
   drains first — a structural stall. *)
let acquire t ~now =
  let best = ref 0 in
  let best_done = ref t.fill_done.(0) in
  for i = 1 to t.size - 1 do
    if t.fill_done.(i) < !best_done then begin
      best := i;
      best_done := t.fill_done.(i)
    end
  done;
  t.allocations <- t.allocations + 1;
  let ready = Int.max now !best_done in
  if ready > now then t.stalls <- t.stalls + 1;
  (!best, ready)

let commit t ~slot ~line ~fill_done =
  if slot < 0 || slot >= t.size then invalid_arg "Mshr.commit: bad slot";
  t.lines.(slot) <- line;
  t.fill_done.(slot) <- fill_done

let allocations t = t.allocations
let merges t = t.merges
let stalls t = t.stalls
