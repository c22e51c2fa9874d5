(** Exact per-request latency distributions.

    A run-length-encoded multiset of per-request cycle counts. Percentiles
    are nearest-rank over the exact distribution — no binning — so a sweep
    evaluation and a machine replay that produce the same per-request cycles
    produce {!equal} distributions, byte for byte. *)

type t

val empty : t

val of_samples : int array -> t
(** Build from raw (unsorted) per-request cycle counts. *)

val count : t -> int
(** Number of requests recorded. *)

val is_empty : t -> bool

val merge : t -> t -> t
(** Union of two multisets. *)

val percentile : t -> float -> int
(** [percentile t p] is the nearest-rank [p]th percentile: the smallest
    recorded value whose cumulative count reaches [ceil (p/100 * count)].
    Raises [Invalid_argument] on an empty distribution or [p] outside
    [0, 100]. *)

val p50 : t -> int
val p99 : t -> int

val p999 : t -> int
(** The 99.9th percentile. *)

val max_value : t -> int
val sum : t -> int
val mean : t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val check_spans : string -> length:int -> (int * int) array -> unit
(** [check_spans caller ~length spans] validates request spans: each
    [(start, stop)] access-index span is non-empty and within
    [\[0, length)], and the spans are sorted and disjoint. Raises
    [Invalid_argument] with a message prefixed by [caller] otherwise. *)

(** Accumulates samples in amortized O(1); sorting and run-length encoding
    happen once in {!Builder.build}. *)
module Builder : sig
  type dist := t
  type t

  val create : ?initial_capacity:int -> unit -> t
  val push : t -> int -> unit
  val length : t -> int
  val build : t -> dist
end
