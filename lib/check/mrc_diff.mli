(** The stack-distance differential runner.

    Where {!Diff} pins the cache + VM layers against naive models, this
    driver pins the single-pass {!Cache.Stack_dist} engine against exact
    simulation: the access stream of a {!Scenario} (reconfiguration events
    are irrelevant — the engine models an unpartitioned cache) is fed once
    through a stack-distance engine sized at the scenario's way count [W],
    and then replayed through [W] fresh non-classifying LRU {!Cache.Sassoc}
    caches, one per associativity [1..W], with the full column mask. Every
    associativity's accesses, hits, misses, evictions and writebacks must
    agree exactly — the Mattson inclusion property made executable. This is
    what lets the sweep experiments read whole configuration curves out of
    one pass. The cold/overflow split is pinned too: [cold_misses] and
    [distinct_lines] must equal a naive count of first line touches, and
    [overflows] the [W]-way misses minus that count. A second engine,
    created with [~cold_lines:false] as the closed-form sweep creates its
    engines, is fed the same stream: every per-access
    {!Cache.Stack_dist.access_traced} outcome (at an associativity that
    rotates through [1..W]), the histogram, the miss curve and every
    associativity's misses, evictions and writebacks must equal the
    tracking engine's, and its [cold_misses] must raise. *)

type divergence = {
  step : int;
      (** always the event count, also for a per-access mismatch, whose
          access index is in [detail] *)
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

val run_scenario : ?bug:Oracle.bug -> Scenario.t -> outcome
(** [bug] plants a defect for mutation-testing the harness: {!Oracle.Mrc}
    demotes writes to reads on the stack-distance side, losing dirty bits
    (other bugs have no effect here — they live in the {!Oracle}). *)
