(* Open addressing over unboxed int arrays: power-of-two capacity, load at
   most 1/2, linear probing, backward-shift deletion (no tombstones, so
   probe runs stay short after removals). [empty] marks a free slot; the
   key that equals it lives outside the arrays, in [has_empty] and
   [empty_val]. *)

let empty = min_int

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* [Sys.int_size - log2 capacity] *)
  mutable count : int;  (* keys in the array *)
  mutable has_empty : bool;
  mutable empty_val : int;
}

(* Fibonacci hashing: the top bits of [key * odd constant], so that strided
   keys (line and page numbers) spread over the whole array. *)
let golden = 0x1E3779B97F4A7C15
let[@inline] home shift key = (key * golden) lsr shift

(* Slot holding [key], or the free slot ending its probe run. The load bound
   guarantees a free slot, so the loop terminates. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = empty then i else probe keys mask key ((i + 1) land mask)

let[@inline] slot t key =
  probe t.keys (Array.length t.keys - 1) key (home t.shift key)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let size = 2 * Array.length old_keys in
  t.keys <- Array.make size empty;
  t.vals <- Array.make size 0;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t k in
        Array.unsafe_set t.keys i k;
        Array.unsafe_set t.vals i (Array.unsafe_get old_vals j)
      end)
    old_keys

module Map = struct
  type nonrec t = t

  let create n =
    (* at least twice [n] slots, at least 8 *)
    let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
    let size = 1 lsl bits 3 in
    {
      keys = Array.make size empty;
      vals = Array.make size 0;
      shift = Sys.int_size - bits 3;
      count = 0;
      has_empty = false;
      empty_val = 0;
    }

  let find t key ~default =
    if key = empty then if t.has_empty then t.empty_val else default
    else
      let i = slot t key in
      if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i
      else default

  let replace t key v =
    if key = empty then begin
      t.has_empty <- true;
      t.empty_val <- v
    end
    else
      let i = slot t key in
      Array.unsafe_set t.vals i v;
      if Array.unsafe_get t.keys i <> key then begin
        Array.unsafe_set t.keys i key;
        t.count <- t.count + 1;
        if 2 * t.count > Array.length t.keys then grow t
      end

  (* Backward-shift deletion: walk the probe run after the hole and pull back
     every key whose home does not lie cyclically in (hole, j], so the run
     stays gap-free. *)
  let remove t key =
    if key = empty then t.has_empty <- false
    else
      let keys = t.keys and vals = t.vals in
      let mask = Array.length keys - 1 in
      let i = slot t key in
      if Array.unsafe_get keys i = key then begin
        let hole = ref i in
        let j = ref ((i + 1) land mask) in
        while Array.unsafe_get keys !j <> empty do
          let k = Array.unsafe_get keys !j in
          let from_home = (!j - home t.shift k) land mask in
          if from_home >= (!j - !hole) land mask then begin
            Array.unsafe_set keys !hole k;
            Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
            hole := !j
          end;
          j := (!j + 1) land mask
        done;
        Array.unsafe_set keys !hole empty;
        t.count <- t.count - 1
      end

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0;
    t.has_empty <- false

end
