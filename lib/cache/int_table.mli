(** An open-addressing int -> int hash map over two unboxed [int array]s,
    for int keys on per-access paths.

    Power-of-two capacity kept at most half full, multiplicative hashing,
    linear probing and backward-shift deletion. Every int is a valid key,
    [min_int] included (the free-slot sentinel is stored out of line). No
    operation allocates except a resize, which doubles the arrays. Sets of
    line numbers are {!Line_set}'s job. *)

module Map : sig
  type t

  val create : int -> t
  (** [create n] sizes the table for [n] keys. *)

  val find : t -> int -> default:int -> int
  (** The key's value, or [default] when it is absent. *)

  val replace : t -> int -> int -> unit

  val remove : t -> int -> unit
  (** [remove] of an absent key is a no-op. *)

  val clear : t -> unit
end
