(* Quickstart: the column cache in thirty lines.

   Two data streams share a small cache. Stream A re-walks a buffer that
   fits in one column; stream B sweeps a large array and, in a standard
   cache, keeps flushing A's buffer out. Mapping the two streams to
   disjoint columns removes the interference without touching the code that
   generates the accesses.

   Run with: dune exec examples/quickstart.exe *)

let cache_config = Cache.Sassoc.config ~line_size:16 ~size_bytes:1024 ~ways:4 ()
let column_bytes = Cache.Sassoc.column_size_bytes cache_config

(* Stream A: a hot buffer exactly one column big. Stream B: a streaming
   sweep four times as fast. *)
let interleaved_trace =
  let b = Memtrace.Trace.Builder.create () in
  for i = 0 to 20_000 do
    Memtrace.Trace.Builder.emit b ~var:"hot" (i * 16 mod column_bytes);
    for j = 0 to 3 do
      Memtrace.Trace.Builder.emit b ~var:"stream"
        (0x100000 + (((4 * i) + j) * 16))
    done
  done;
  Memtrace.Trace.Builder.build b

(* Hit rate of the hot buffer's own accesses under a given mapping. *)
let hot_hit_rate_of mask_of =
  let cache = Cache.Sassoc.create cache_config in
  let hits = ref 0 and total = ref 0 in
  Memtrace.Trace.iter
    (fun a ->
      let mask = mask_of a.Memtrace.Access.addr in
      let r = Cache.Sassoc.access_record cache ~mask a in
      if a.Memtrace.Access.var = Some "hot" then begin
        incr total;
        match r with
        | Cache.Sassoc.Hit _ -> incr hits
        | Cache.Sassoc.Miss _ -> ()
      end)
    interleaved_trace;
  float_of_int !hits /. float_of_int !total

let () =
  let shared = hot_hit_rate_of (fun _ -> Cache.Bitmask.full ~n:4) in
  let partitioned =
    (* the hot buffer gets column 0 to itself; the stream gets the rest *)
    hot_hit_rate_of (fun addr ->
        if addr < column_bytes then Cache.Bitmask.singleton 0
        else Cache.Bitmask.of_list [ 1; 2; 3 ])
  in
  Format.printf "hot buffer, standard shared cache: %5.1f%% hits@."
    (100. *. shared);
  Format.printf "hot buffer, column-partitioned:    %5.1f%% hits@."
    (100. *. partitioned);
  Format.printf
    "@.The partitioned cache protects the hot buffer from the streaming@.\
     sweep: same hardware, one software mapping change.@."
