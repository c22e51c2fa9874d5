(** Seeded pseudo-random numbers shared by the workload generators and the
    conformance harness.

    A splitmix64 generator: tiny, fast, and — unlike [Stdlib.Random] — with a
    bit-for-bit stable output sequence across OCaml versions, so a failing
    seed reported by CI reproduces exactly on any machine. {!Gen}'s traffic
    streams and every generator in [Check.Gen] draw from one of these. *)

type t

val create : seed:int -> t
(** Two generators created with the same seed produce the same sequence. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [lo, hi] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float
(** Uniform in [0, 1), from the draw's top 53 bits. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val subset : t -> keep:float -> 'a list -> 'a list
(** Keep each element independently with probability [keep]. *)
