(** Seeded random generation of differential test cases.

    All generation draws from a caller-supplied {!Workloads.Prng.t}, so a
    seed fully determines the batch: CI failures name a seed and an
    iteration index, and both replay anywhere. Geometries are biased toward
    small, collision-heavy caches (few sets, few ways) because those
    exercise replacement hardest, but every call can also produce the
    extremes — one way, or {!Cache.Bitmask.max_columns} ways. *)

val tint_names : string list
(** The tint vocabulary scenarios draw from ("blue", "green", ...). *)

val mask : Workloads.Prng.t -> ways:int -> Cache.Bitmask.t
(** A uniformly random {e non-empty} mask over columns [0..ways-1]. *)

val scenario :
  ?ways:int ->
  ?policy:Cache.Policy.kind ->
  ?max_events:int ->
  Workloads.Prng.t ->
  Scenario.t
(** A random scenario: geometry, VM configuration and an event stream that
    is mostly accesses with re-tints, re-maps and flushes mixed in.
    [ways]/[policy] pin those dimensions (used to force coverage of the
    extremes); [max_events] bounds the stream length (default 160). *)

val traffic_scenario :
  ?ways:int ->
  ?policy:Cache.Policy.kind ->
  ?max_events:int ->
  ?perturb:bool ->
  Workloads.Prng.t ->
  Scenario.t * int
(** A scenario whose access stream comes from a seeded {!Workloads.Gen}
    distribution — Zipf, drifting hot sets, scans, phased mixtures — so the
    differential drivers soak against traffic with realistic locality, not
    uniform noise. Reconfiguration events are interleaved at ~8%. Returns
    the scenario and the generator's declared address limit: every access
    must lie in [0, limit), which the soak verifies. [perturb] plants the
    [--inject-bug gen] mutation (Zipf ranks shifted past the declared
    range); every stream shape carries a Zipf component so the mutation is
    always detectable. *)

val trace : ?max_len:int -> Workloads.Prng.t -> Memtrace.Trace.t
(** A random plain access trace (kinds, vars, gaps, addresses), for
    round-trip tests of {!Memtrace.Trace_file}. May be empty. *)
