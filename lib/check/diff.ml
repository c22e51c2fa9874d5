module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask
module Stats = Cache.Stats
module Tint = Vm.Tint
module Prng = Workloads.Prng

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

exception Found of string

let failf fmt = Format.kasprintf (fun s -> raise (Found s)) fmt

let pp_result ppf = function
  | Sassoc.Hit { way } -> Format.fprintf ppf "hit way=%d" way
  | Sassoc.Miss { way; evicted_line = None } ->
      Format.fprintf ppf "miss way=%d evicted=-" way
  | Sassoc.Miss { way; evicted_line = Some l } ->
      Format.fprintf ppf "miss way=%d evicted=line:%d" way l

let pp_outcome ppf = function
  | Vm.Tlb.Hit -> Format.fprintf ppf "hit"
  | Vm.Tlb.Miss -> Format.fprintf ppf "miss"

let check = function Ok () -> () | Error msg -> raise (Found msg)

(* Compare the VM-resolution half of one access (available on both drivers). *)
let compare_resolution ~rmask ~omask ~rtint ~otint ~routcome ~ooutcome =
  if not (Bitmask.equal rmask omask) then
    failf "resolved mask differs: real %a, oracle %a" Bitmask.pp rmask
      Bitmask.pp omask;
  if not (Tint.equal rtint otint) then
    failf "resolved tint differs: real %a, oracle %a" Tint.pp rtint Tint.pp
      otint;
  if routcome <> ooutcome then
    failf "tlb outcome differs: real %a, oracle %a" pp_outcome routcome
      pp_outcome ooutcome

(* Compare the two sides after one access (per-access driver only). *)
let compare_access ~rmask ~omask ~rtint ~otint ~routcome ~ooutcome ~rres ~ores
    =
  compare_resolution ~rmask ~omask ~rtint ~otint ~routcome ~ooutcome;
  if rres <> ores then
    failf "cache result differs: real %a, oracle %a" pp_result rres pp_result
      ores

let compare_stats (r : Stats.t) (o : Stats.t) =
  let pair name a b = if a <> b then failf "final %s differ: real %d, oracle %d" name a b in
  pair "accesses" r.accesses o.accesses;
  pair "hits" r.hits o.hits;
  pair "misses" r.misses o.misses;
  pair "cold misses" r.cold_misses o.cold_misses;
  pair "capacity misses" r.capacity_misses o.capacity_misses;
  pair "conflict misses" r.conflict_misses o.conflict_misses;
  pair "evictions" r.evictions o.evictions;
  pair "writebacks" r.writebacks o.writebacks;
  if r.fills_per_way <> o.fills_per_way then
    failf "final fills-per-way differ: real [%s], oracle [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int r.fills_per_way)))
      (String.concat ";" (Array.to_list (Array.map string_of_int o.fills_per_way)))

let compare_costs (r : Vm.Mapping.cost) (o : Vm.Mapping.cost) =
  if r <> o then
    failf "final reconfiguration costs differ: real (%a), oracle (%a)"
      Vm.Mapping.pp_cost r Vm.Mapping.pp_cost o

let run_scenario ?bug ?(fast_path = false) (sc : Scenario.t) =
  let cfg = sc.cache in
  let real = Sassoc.create cfg in
  let mapping =
    Vm.Mapping.create ~tlb_entries:sc.tlb_entries ~page_size:sc.page_size
      ~columns:cfg.Sassoc.ways ()
  in
  let oracle = Oracle.create ?bug cfg in
  let resolver =
    Resolver.create ~page_size:sc.page_size ~columns:cfg.Sassoc.ways
      ~tlb_entries:sc.tlb_entries
  in
  (* The LRU monitor consumes per-access results, which the batched driver
     does not produce. *)
  let monitor =
    if cfg.Sassoc.policy = Cache.Policy.Lru && bug = None && not fast_path then
      Some (Invariant.Lru_monitor.create cfg)
    else None
  in
  (* Union of the masks each set was filled under, for the occupancy
     invariant. *)
  let fill_masks = Hashtbl.create 16 in
  let note_fill_mask set mask =
    let prev =
      Option.value ~default:Bitmask.empty (Hashtbl.find_opt fill_masks set)
    in
    Hashtbl.replace fill_masks set (Bitmask.union prev mask)
  in
  let step = ref 0 in
  (* Fast-path batching: consecutive accesses that resolve to the same column
     mask are queued and replayed through [Sassoc.access_trace] in one call —
     the same batching shape real callers use. The oracle still steps one
     access at a time; per-access result comparison is impossible here (the
     batched entry point returns none), so divergence is caught by the
     final-state comparison plus the per-batch invariants. *)
  let pending = ref [] in
  let pending_mask = ref Bitmask.empty in
  let pending_sets = ref [] in
  let flush_batch () =
    match !pending with
    | [] -> ()
    | evs ->
        let arr = Array.of_list (List.rev evs) in
        (* The planted fast-path bug lives here, on the real side: writes are
           demoted to reads when building the batch, losing dirty bits. *)
        let arr =
          if bug = Some Oracle.Fast_path then
            Array.map
              (fun (a : Memtrace.Access.t) ->
                match a.kind with
                | Memtrace.Access.Write -> { a with kind = Memtrace.Access.Read }
                | Memtrace.Access.Read | Memtrace.Access.Ifetch -> a)
              arr
          else arr
        in
        Sassoc.access_trace real ~mask:!pending_mask
          (Memtrace.Trace.of_array arr);
        pending := [];
        check (Invariant.stats_conserved (Sassoc.stats real));
        List.iter
          (fun set ->
            check
              (Invariant.occupancy_within real ~set
                 ~allowed:(Hashtbl.find fill_masks set)))
          (List.sort_uniq compare !pending_sets);
        pending_sets := []
  in
  let apply event =
    match (event : Scenario.event) with
    | Scenario.Access a when fast_path ->
        let rmask, rtint, routcome = Vm.Mapping.resolve mapping a.addr in
        let omask, otint, ooutcome = Resolver.resolve resolver a.addr in
        ignore (Oracle.access oracle ~mask:omask ~kind:a.kind a.addr);
        compare_resolution ~rmask ~omask ~rtint ~otint ~routcome ~ooutcome;
        if !pending <> [] && not (Bitmask.equal rmask !pending_mask) then
          flush_batch ();
        pending_mask := rmask;
        pending := a :: !pending;
        (* Note the mask for every batched access, not just misses: a sound
           over-approximation of the fill-mask union the per-access driver
           tracks, keeping the occupancy invariant checkable per batch. *)
        let set = Sassoc.set_of_addr real a.addr in
        note_fill_mask set rmask;
        pending_sets := set :: !pending_sets
    | Scenario.Access a ->
        let rmask, rtint, routcome = Vm.Mapping.resolve mapping a.addr in
        let omask, otint, ooutcome = Resolver.resolve resolver a.addr in
        let rres = Sassoc.access real ~mask:rmask ~kind:a.kind a.addr in
        let ores = Oracle.access oracle ~mask:omask ~kind:a.kind a.addr in
        compare_access ~rmask ~omask ~rtint ~otint ~routcome ~ooutcome ~rres
          ~ores;
        check (Invariant.victim_in_mask ~mask:rmask rres);
        check (Invariant.stats_conserved (Sassoc.stats real));
        (match rres with
        | Sassoc.Miss _ ->
            let set = Sassoc.set_of_addr real a.addr in
            note_fill_mask set rmask;
            check
              (Invariant.occupancy_within real ~set
                 ~allowed:(Hashtbl.find fill_masks set))
        | Sassoc.Hit _ -> ());
        Option.iter
          (fun m ->
            check (Invariant.Lru_monitor.note m ~mask:rmask ~kind:a.kind a.addr rres))
          monitor
    | Scenario.Retint { base; size; tint } ->
        let tint = Tint.make tint in
        let rn = Vm.Mapping.retint_region mapping ~base ~size tint in
        let on = Resolver.retint_region resolver ~base ~size tint in
        if rn <> on then
          failf "retint page count differs: real %d, oracle %d" rn on
    | Scenario.Remap { tint; mask } ->
        let tint = Tint.make tint in
        Vm.Mapping.remap_tint mapping tint mask;
        Resolver.remap_tint resolver tint mask
    | Scenario.Flush_tlb ->
        Vm.Tlb.flush (Vm.Mapping.tlb mapping);
        Resolver.flush_tlb resolver
    | Scenario.Flush_cache ->
        (* Deferred accesses must land before the flush discards contents. *)
        flush_batch ();
        Sassoc.flush real;
        Oracle.flush oracle;
        Option.iter Invariant.Lru_monitor.flush monitor
  in
  try
    List.iter
      (fun e ->
        apply e;
        incr step)
      sc.events;
    flush_batch ();
    (* Final-state comparison: statistics, full contents, VM costs. *)
    compare_stats (Sassoc.stats real) (Oracle.stats oracle);
    for set = 0 to cfg.Sassoc.sets - 1 do
      let r = Sassoc.lines_in_set real set in
      let o = Oracle.lines_in_set oracle set in
      if r <> o then
        failf "final contents of set %d differ: real has %d lines, oracle %d \
               (first mismatch: %s)"
          set (List.length r) (List.length o)
          (let pp (w, l) = Printf.sprintf "way %d line %d" w l in
           match
             List.find_opt (fun p -> not (List.mem p o)) r
           with
           | Some p -> "real-only " ^ pp p
           | None -> (
               match List.find_opt (fun p -> not (List.mem p r)) o with
               | Some p -> "oracle-only " ^ pp p
               | None -> "ordering"))
    done;
    compare_costs (Vm.Mapping.cost mapping) (Resolver.cost resolver);
    let rtlb = Vm.Mapping.tlb mapping in
    if Vm.Tlb.hits rtlb <> Resolver.tlb_hits resolver
       || Vm.Tlb.misses rtlb <> Resolver.tlb_misses resolver
    then
      failf "final TLB counters differ: real %d/%d, oracle %d/%d"
        (Vm.Tlb.hits rtlb) (Vm.Tlb.misses rtlb)
        (Resolver.tlb_hits resolver)
        (Resolver.tlb_misses resolver);
    Agree
  with Found detail -> Diverge { step = !step; detail }

(* The machine-level driver lives in [Machine_diff]; adapt its outcome so
   the shrinker and the soak treat both drivers uniformly. *)
let run_machine ?bug sc =
  match Machine_diff.run_scenario ?bug sc with
  | Machine_diff.Agree -> Agree
  | Machine_diff.Diverge { step; detail } -> Diverge { step; detail }

(* Likewise for the stack-distance differential ([Mrc_diff]). *)
let run_mrc ?bug sc =
  match Mrc_diff.run_scenario ?bug sc with
  | Mrc_diff.Agree -> Agree
  | Mrc_diff.Diverge { step; detail } -> Diverge { step; detail }

(* Likewise for the sampled-vs-exact differential ([Sample_diff]). *)
let run_sample ?bug sc =
  match Sample_diff.run_scenario ?bug sc with
  | Sample_diff.Agree -> Agree
  | Sample_diff.Diverge { step; detail } -> Diverge { step; detail }

(* Likewise for the sharded-vs-serial differential ([Shard_diff]). *)
let run_shard ?bug sc =
  match Shard_diff.run_scenario ?bug sc with
  | Shard_diff.Agree -> Agree
  | Shard_diff.Diverge { step; detail } -> Diverge { step; detail }

(* Likewise for the event-core differential ([Event_diff]). *)
let run_event ?bug sc =
  match Event_diff.run_scenario ?bug sc with
  | Event_diff.Agree -> Agree
  | Event_diff.Diverge { step; detail } -> Diverge { step; detail }

(* --- shrinking ---------------------------------------------------------- *)

let shrink_by (run : Scenario.t -> outcome) sc =
  match run sc with
  | Agree -> sc
  | Diverge { step; _ } ->
      (* Shortest diverging prefix first: everything after the divergence is
         noise by construction. *)
      let sc = ref (Scenario.truncate sc (min (step + 1) (Scenario.length sc))) in
      let progressed = ref true in
      while !progressed do
        progressed := false;
        (* Re-truncate: a removal may have moved the divergence earlier. *)
        (match run !sc with
        | Diverge { step; _ } when step + 1 < Scenario.length !sc ->
            sc := Scenario.truncate !sc (step + 1);
            progressed := true
        | _ -> ());
        (* Greedy deletion: keep any single-event removal that still
           diverges. *)
        let i = ref 0 in
        while !i < Scenario.length !sc do
          let candidate = Scenario.remove_event !sc !i in
          match run candidate with
          | Diverge _ ->
              sc := candidate;
              progressed := true
          | Agree -> incr i
        done
      done;
      !sc

let shrink ?bug ?fast_path sc = shrink_by (run_scenario ?bug ?fast_path) sc

(* --- soak driver -------------------------------------------------------- *)

type summary = {
  iters : int;
  events : int;
  accesses : int;
  retints : int;
  remaps : int;
  policies : string list;
  min_ways : int;
  max_ways : int;
  fast_path_iters : int;
  machine_iters : int;
  mrc_iters : int;
  sample_iters : int;
  shard_iters : int;
  traffic_iters : int;
  wcet_iters : int;
  event_iters : int;
}

type failure = {
  iteration : int;
  scenario : Scenario.t;
  divergence : divergence;
  fast_path : bool;
  machine : bool;
  mrc : bool;
  sample : bool;
  shard : bool;
  gen : bool;
  wcet : bool;
  event : bool;
}

let policy_family = function
  | Cache.Policy.Lru -> "lru"
  | Cache.Policy.Fifo -> "fifo"
  | Cache.Policy.Bit_plru -> "plru"
  | Cache.Policy.Random _ -> "random"

(* The first iterations pin the dimensions the acceptance bar names: both
   geometry extremes and every policy family. *)
let forced_ways = [| 1; Bitmask.max_columns; 2; 4; 3; 8; 16; Bitmask.max_columns |]

let soak ?bug ?max_events ?(progress = fun _ -> ()) ~seed ~iters () =
  let rng = Prng.create ~seed in
  (* Dedicated stream for the wcet check's program seeds: drawing them from
     [rng] would shift every scenario generated after the first wcet
     iteration, perturbing the coverage (and the statistical checks) of all
     the other drivers whenever this rotation changes. *)
  let wcet_rng = Prng.create ~seed:(seed lxor 0x57ce7) in
  let summary =
    ref
      {
        iters = 0;
        events = 0;
        accesses = 0;
        retints = 0;
        remaps = 0;
        policies = [];
        min_ways = max_int;
        max_ways = 0;
        fast_path_iters = 0;
        machine_iters = 0;
        mrc_iters = 0;
        sample_iters = 0;
        shard_iters = 0;
        traffic_iters = 0;
        wcet_iters = 0;
        event_iters = 0;
      }
  in
  let account (sc : Scenario.t) ~fast_path ~machine ~mrc ~sample ~shard
      ~traffic ~wcet ~event =
    let s = !summary in
    let count f = List.length (List.filter f sc.events) in
    let ways = sc.cache.Sassoc.ways in
    summary :=
      {
        iters = s.iters + 1;
        events = s.events + Scenario.length sc;
        accesses = s.accesses + Scenario.accesses sc;
        retints =
          s.retints
          + count (function Scenario.Retint _ -> true | _ -> false);
        remaps =
          s.remaps + count (function Scenario.Remap _ -> true | _ -> false);
        policies =
          (let f = policy_family sc.cache.Sassoc.policy in
           if List.mem f s.policies then s.policies
           else List.sort String.compare (f :: s.policies));
        min_ways = min s.min_ways ways;
        max_ways = max s.max_ways ways;
        fast_path_iters = s.fast_path_iters + (if fast_path then 1 else 0);
        machine_iters = s.machine_iters + (if machine then 1 else 0);
        mrc_iters = s.mrc_iters + (if mrc then 1 else 0);
        sample_iters = s.sample_iters + (if sample then 1 else 0);
        shard_iters = s.shard_iters + (if shard then 1 else 0);
        traffic_iters = s.traffic_iters + (if traffic then 1 else 0);
        wcet_iters = s.wcet_iters + (if wcet then 1 else 0);
        event_iters = s.event_iters + (if event then 1 else 0);
      }
  in
  (* The containment contract on generator-backed scenarios: every emitted
     address lies inside the generator's declared [0, limit). A violation is
     a generator bug (the [--inject-bug gen] mutation plants exactly one),
     reported with a one-event repro — the offending access — since the
     divergence is between the trace and its declaration, not between
     drivers. *)
  let contained (sc : Scenario.t) ~limit =
    let rec go i = function
      | [] -> Ok ()
      | Scenario.Access a :: _
        when a.Memtrace.Access.addr < 0 || a.Memtrace.Access.addr >= limit ->
          Error (i, a)
      | _ :: rest -> go (i + 1) rest
    in
    go 0 sc.Scenario.events
  in
  let rec loop i =
    if i >= iters then Ok !summary
    else begin
      (* After the forced-coverage preamble, every third scenario draws its
         accesses from a traffic-shaped generator stream instead of uniform
         noise; the same drivers replay it, plus the containment check. *)
      let traffic = i >= Array.length forced_ways && i mod 3 = 2 in
      let sc, gen_limit =
        if traffic then
          let perturb = bug = Some Oracle.Gen in
          let sc, limit = Gen.traffic_scenario ?max_events ~perturb rng in
          (sc, Some limit)
        else if i < Array.length forced_ways then
          ( Gen.scenario ~ways:forced_ways.(i)
              ~policy:(List.nth Cache.Policy.all_kinds (i mod 4))
              ?max_events rng,
            None )
        else (Gen.scenario ?max_events rng, None)
      in
      (* Odd iterations replay the real side through the batched
         [Sassoc.access_trace] driver; even iterations additionally replay
         the whole scenario through the machine-level differential
         ([Machine.System.run_packed] vs scalar [System.access]), so every
         batched entry point soaks equally; every fourth iteration also
         checks the stack-distance engine against exact per-associativity
         LRU replays ([Mrc_diff] — iteration 1 pins the max-ways extreme). *)
      let fast_path = i mod 2 = 1 in
      let machine = i mod 2 = 0 in
      let mrc = i mod 4 = 1 in
      (* ...and every fourth iteration (offset from the mrc quarter) checks
         the SHARDS-sampled estimator against the exact engine within the
         error bound ([Sample_diff]). *)
      let sample = i mod 4 = 3 in
      (* ...and the remaining quarter slot replays the scenario through the
         sharded-vs-serial stack-distance differential ([Shard_diff]):
         every reading of the merged sharded engines must equal the serial
         engine's exactly. It draws nothing from any RNG stream. *)
      let shard = i mod 4 = 2 in
      (* ...and every fifth post-preamble iteration runs the static
         cache-analysis soundness check ([Wcet_diff]) on its own random
         program, seeded from the soak stream. *)
      let wcet = i >= Array.length forced_ways && i mod 5 = 4 in
      let wcet_seed = if wcet then Prng.int wcet_rng 0x3FFFFFFF else 0 in
      (* ...and every third iteration (the preamble included, so both
         geometry extremes soak) replays the scenario through the
         event-core differential ([Event_diff]): same functional counts,
         retimed by MSHRs and banked DRAM. It draws nothing from any RNG
         stream, so the rotation cannot perturb the other drivers. *)
      let event = i mod 3 = 0 in
      account sc ~fast_path ~machine ~mrc ~sample ~shard ~traffic ~wcet
        ~event;
      let fail driver ~fast_path ~machine ~mrc ~sample ~shard ~event =
        let shrunk = shrink_by driver sc in
        let divergence =
          match driver shrunk with
          | Diverge d -> d
          | Agree -> { step = 0; detail = "shrunk scenario stopped diverging" }
        in
        Error
          ( { iteration = i; scenario = shrunk; divergence; fast_path;
              machine; mrc; sample; shard; gen = false; wcet = false; event },
            !summary )
      in
      let containment_outcome =
        match gen_limit with
        | None -> Ok ()
        | Some limit -> (
            match contained sc ~limit with
            | Ok () -> Ok ()
            | Error (step, a) ->
                Error
                  ( {
                      iteration = i;
                      scenario = { sc with Scenario.events = [ Scenario.Access a ] };
                      divergence =
                        {
                          step;
                          detail =
                            Printf.sprintf
                              "generator emitted address %d outside its \
                               declared range [0, %d)"
                              a.Memtrace.Access.addr limit;
                        };
                      fast_path = false;
                      machine = false;
                      mrc = false;
                      sample = false;
                      shard = false;
                      gen = true;
                      wcet = false;
                      event = false;
                    },
                    !summary ))
      in
      match containment_outcome with
      | Error _ as e -> e
      | Ok () -> (
          match run_scenario ?bug ~fast_path sc with
          | Diverge _ ->
              fail (run_scenario ?bug ~fast_path) ~fast_path ~machine:false
                ~mrc:false ~sample:false ~shard:false ~event:false
          | Agree -> (
              match if machine then run_machine ?bug sc else Agree with
              | Diverge _ ->
                  fail (run_machine ?bug) ~fast_path:false ~machine:true
                    ~mrc:false ~sample:false ~shard:false ~event:false
              | Agree -> (
                  match if mrc then run_mrc ?bug sc else Agree with
                  | Diverge _ ->
                      fail (run_mrc ?bug) ~fast_path:false ~machine:false
                        ~mrc:true ~sample:false ~shard:false ~event:false
                  | Agree -> (
                      match if sample then run_sample ?bug sc else Agree with
                      | Diverge _ ->
                          fail (run_sample ?bug) ~fast_path:false
                            ~machine:false ~mrc:false ~sample:true
                            ~shard:false ~event:false
                      | Agree -> (
                          match if shard then run_shard ?bug sc else Agree with
                          | Diverge _ ->
                              fail (run_shard ?bug) ~fast_path:false
                                ~machine:false ~mrc:false ~sample:false
                                ~shard:true ~event:false
                          | Agree -> (
                          match if event then run_event ?bug sc else Agree with
                          | Diverge _ ->
                              fail (run_event ?bug) ~fast_path:false
                                ~machine:false ~mrc:false ~sample:false
                                ~shard:false ~event:true
                          | Agree -> (
                              match
                                if wcet then
                                  Wcet_diff.run_one ?bug ~seed:wcet_seed ()
                                else Ok ()
                              with
                              | Error detail ->
                                  (* No scenario diverged: the repro is the
                                     seed and program carried in the
                                     detail. *)
                                  Error
                                    ( {
                                        iteration = i;
                                        scenario = sc;
                                        divergence = { step = 0; detail };
                                        fast_path = false;
                                        machine = false;
                                        mrc = false;
                                        sample = false;
                                        shard = false;
                                        gen = false;
                                        wcet = true;
                                        event = false;
                                      },
                                      !summary )
                              | Ok () ->
                                  progress i;
                                  loop (i + 1))))))))
    end
  in
  loop 0

let pp_divergence ppf d =
  Format.fprintf ppf "at event %d: %s" d.step d.detail

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>divergence on iteration %d (%s driver), %a@,@,minimal repro (%d \
     events, %d accesses):@,%a@]"
    f.iteration
    (if f.gen then "generator containment"
     else if f.wcet then "wcet static-bound"
     else if f.event then "event-core count"
     else if f.machine then "machine batched-replay"
     else if f.mrc then "stack-distance mrc"
     else if f.sample then "sampled mrc error-bound"
     else if f.shard then "sharded-vs-serial mrc"
     else if f.fast_path then "batched fast-path"
     else "per-access")
    pp_divergence f.divergence
    (Scenario.length f.scenario)
    (Scenario.accesses f.scenario)
    Scenario.pp f.scenario

let pp_summary ppf s =
  Format.fprintf ppf
    "%d scenarios agreed (%d events, %d accesses, %d re-tints, %d re-maps, \
     %d via the batched fast path, %d via the machine batched replay, %d \
     via the stack-distance mrc differential, %d via the sampled mrc \
     error bound, %d via the sharded-vs-serial differential, %d from \
     traffic-shaped generators, %d with wcet static-bound checks, %d via \
     the event-core count differential; policies: %s; ways %s)"
    s.iters s.events s.accesses s.retints s.remaps s.fast_path_iters
    s.machine_iters s.mrc_iters s.sample_iters s.shard_iters s.traffic_iters
    s.wcet_iters s.event_iters
    (String.concat "," s.policies)
    (if s.min_ways > s.max_ways then "-"
     else Printf.sprintf "%d..%d" s.min_ways s.max_ways)
