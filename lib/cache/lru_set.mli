(** Fixed-capacity LRU set of integer keys with O(1) touch.

    Used as the shadow fully-associative cache for three-C miss
    classification and as the TLB's entry store. *)

type t

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val mem : t -> int -> bool

val touch : t -> int -> [ `Hit | `Miss of int option ]
(** Promote the key to most-recently-used, inserting it if absent. On an
    insertion that overflows capacity, the least-recently-used key is evicted
    and returned as [`Miss (Some evicted)]. *)

(** {2 Slot API}

    The allocation-free form of {!touch}. A resident key keeps its slot in
    [0, capacity) until it leaves, so callers can keep per-key data in
    their own slot-indexed arrays (the TLB's tints). *)

val slot : t -> int -> int
(** The key's slot, or [-1] when it is absent. *)

val promote : t -> int -> unit
(** Make this slot's key the most recently used. *)

val insert : t -> int -> int
(** Insert an absent key as the most recently used and return its slot,
    evicting the least-recently-used key when full. *)

val evicted : t -> int
(** The key the last {!insert} evicted, or [min_int] if it evicted none. *)

val remove : t -> int -> bool
(** Returns whether the key was present. *)

val clear : t -> unit
val to_list : t -> int list
(** Keys from most- to least-recently used. *)
