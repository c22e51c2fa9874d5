module Sassoc = Cache.Sassoc
module Stack_dist = Cache.Stack_dist
module Stats = Cache.Stats

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

exception Found of string

let failf fmt = Format.kasprintf (fun s -> raise (Found s)) fmt

let accesses_of (sc : Scenario.t) =
  List.filter_map
    (function Scenario.Access a -> Some a | _ -> None)
    sc.Scenario.events

let run_scenario ?bug (sc : Scenario.t) =
  let cfg = sc.Scenario.cache in
  let w = cfg.Sassoc.ways in
  let accesses = accesses_of sc in
  let make cold_lines =
    Stack_dist.create ~cold_lines ~line_size:cfg.Sassoc.line_size
      ~sets:cfg.Sassoc.sets ~max_ways:w ()
  in
  (* [bare] is set up as the closed-form sweep sets up its engines, without
     the cold-line memory; it must read exactly like [engine] throughout. *)
  let engine = make true and bare = make false in
  try
    List.iteri
      (fun i (a : Memtrace.Access.t) ->
        (* The planted mrc bug lives here, on the stack-distance side: writes
           are demoted to reads, losing dirty bits and hence writebacks. *)
        let kind =
          if bug = Some Oracle.Mrc && a.kind = Memtrace.Access.Write then
            Memtrace.Access.Read
          else a.kind
        in
        let ways = 1 + (i mod w) in
        let seen = Stack_dist.access_traced engine ~kind ~ways a.addr in
        let seen_bare = Stack_dist.access_traced bare ~kind ~ways a.addr in
        if seen <> seen_bare then
          failf "access %d at %d ways: tracking engine saw %d, engine \
                 without cold lines %d" i ways seen seen_bare)
      accesses;
    let pair_bare name a b =
      if a <> b then
        failf "%s: tracking engine %d, engine without cold lines %d" name a b
    in
    pair_bare "accesses" (Stack_dist.accesses engine) (Stack_dist.accesses bare);
    if Stack_dist.histogram engine <> Stack_dist.histogram bare then
      failf "histograms differ without cold lines";
    if Stack_dist.miss_curve engine <> Stack_dist.miss_curve bare then
      failf "miss curves differ without cold lines";
    for ways = 1 to w do
      let at name f =
        pair_bare
          (Printf.sprintf "%s at %d ways" name ways)
          (f engine ~ways) (f bare ~ways)
      in
      at "misses" Stack_dist.misses;
      at "evictions" Stack_dist.evictions;
      at "writebacks" Stack_dist.writebacks
    done;
    (match Stack_dist.cold_misses bare with
    | n -> failf "cold_misses read %d on an engine without cold lines" n
    | exception Invalid_argument _ -> ());
    (* Internal conservation first: every access is cold, overflowed or at an
       exact depth, and the curve's endpoints are pinned. *)
    let hist_total = Array.fold_left ( + ) 0 (Stack_dist.histogram engine) in
    if
      Stack_dist.cold_misses engine + Stack_dist.overflows engine + hist_total
      <> Stack_dist.accesses engine
    then
      failf "histogram not conserved: cold %d + overflow %d + sum %d <> %d"
        (Stack_dist.cold_misses engine)
        (Stack_dist.overflows engine)
        hist_total
        (Stack_dist.accesses engine);
    (* The cold/overflow split against a naive first-touch count: a line's
       first reference is its one cold miss. Conservation alone cannot see
       a cold-line memory that forgets a line (an overflow turns cold). *)
    let lines = Hashtbl.create 64 in
    let shift = ref 0 in
    while 1 lsl !shift < cfg.Sassoc.line_size do incr shift done;
    List.iter
      (fun (a : Memtrace.Access.t) ->
        Hashtbl.replace lines (a.addr lsr !shift) ())
      accesses;
    let first_touches = Hashtbl.length lines in
    let pair_naive name engine_v naive_v =
      if engine_v <> naive_v then
        failf "%s: stack-distance %d, naive first-touch model %d" name
          engine_v naive_v
    in
    pair_naive "cold misses" (Stack_dist.cold_misses engine) first_touches;
    pair_naive "distinct lines" (Stack_dist.distinct_lines engine)
      first_touches;
    let curve = Stack_dist.miss_curve engine in
    if curve.(0) <> Stack_dist.accesses engine then
      failf "miss_curve.(0) = %d, expected the access count %d" curve.(0)
        (Stack_dist.accesses engine);
    for ways = 1 to w do
      let exact =
        Sassoc.create
          { cfg with Sassoc.ways; policy = Cache.Policy.Lru; classify = false }
      in
      List.iter
        (fun (a : Memtrace.Access.t) ->
          ignore (Sassoc.access exact ~kind:a.kind a.addr))
        accesses;
      let r = Sassoc.stats exact in
      let e = Stack_dist.stats engine ~ways in
      let pair name a b =
        if a <> b then
          failf "%d-way %s differ: exact %d, stack-distance %d" ways name a b
      in
      pair "accesses" r.Stats.accesses e.Stats.accesses;
      pair "hits" r.Stats.hits e.Stats.hits;
      pair "misses" r.Stats.misses e.Stats.misses;
      pair "evictions" r.Stats.evictions e.Stats.evictions;
      pair "writebacks" r.Stats.writebacks e.Stats.writebacks;
      if ways = w then
        pair_naive "overflows"
          (Stack_dist.overflows engine)
          (r.Stats.misses - first_touches);
      if curve.(ways) <> e.Stats.misses then
        failf "miss_curve.(%d) = %d disagrees with stats misses %d" ways
          curve.(ways) e.Stats.misses
    done;
    Agree
  with Found detail -> Diverge { step = List.length sc.Scenario.events; detail }
