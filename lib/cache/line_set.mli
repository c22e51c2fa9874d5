(** A set of line numbers stored as a paged bitmap: the memory of every
    line a cache or stack-distance engine has ever referenced, which splits
    misses into cold (first-touch) and the rest.

    A page covers 128 consecutive lines (16 bytes of bits). Pages live in
    one growable [Bytes] arena in first-touch order, an {!Int_table.Map}
    maps page numbers to arena offsets, and a one-entry memo remembers the
    last page used. A dense footprint costs about a bit per line plus a
    page's map entry; an isolated line costs a whole page and its map
    entry, about 80 bytes (DESIGN.md has the measurements and why pages
    are not larger). Every int is a valid line. *)

type t

val create : unit -> t
(** An empty set. It allocates no page until the first {!add}. *)

val add : t -> int -> bool
(** Insert the line; returns whether it was absent before. *)

val length : t -> int
(** Lines in the set (a running count). *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every line of [src] to [dst], page by page.
    The cost grows with [src]'s page count, not its line count, and the
    count stays exact when the two sets overlap. *)
