(** Open-addressing hash tables over unboxed [int array]s, for int keys on
    per-access paths.

    Power-of-two capacity kept at most half full, multiplicative hashing,
    linear probing and backward-shift deletion. Every int is a valid key,
    [min_int] included (the free-slot sentinel is stored out of line). No
    operation allocates except a resize, which doubles the arrays.
    Mutating a set while iterating over it is unspecified. *)

(** A keys-only set: one word per slot, no values array. [create n] sizes
    the table for [n] keys. *)
module Set : sig
  type t

  val create : int -> t
  val length : t -> int

  val add : t -> int -> bool
  (** Insert the key; returns whether it was absent before. *)

  val iter : (int -> unit) -> t -> unit
end

(** An int -> int map. [remove] of an absent key is a no-op. *)
module Map : sig
  type t

  val create : int -> t

  val find : t -> int -> default:int -> int
  (** The key's value, or [default] when it is absent. *)

  val replace : t -> int -> int -> unit
  val remove : t -> int -> unit
  val clear : t -> unit
end
