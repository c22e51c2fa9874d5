(* Doubly-linked list over slot indices, plus a key -> slot table. Slot -1 is
   the nil sentinel. [head] is the most recently used slot. *)
type t = {
  capacity : int;
  keys : int array;
  prev : int array;
  next : int array;
  index : Int_table.Map.t;
  mutable head : int;
  mutable tail : int;
  mutable free : int list;
  mutable length : int;
  (* key evicted by the most recent [insert]; [min_int] when it took a free
     slot *)
  mutable evicted : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru_set.create: capacity must be positive";
  {
    capacity;
    keys = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    (* sized for a load of at most 1/4: the TLB evicts and inserts on every
       miss, and backward-shift deletion walks whole probe clusters *)
    index = Int_table.Map.create (2 * capacity);
    head = -1;
    tail = -1;
    free = List.init capacity (fun i -> i);
    length = 0;
    evicted = min_int;
  }

let capacity t = t.capacity
let length t = t.length
let slot t key = Int_table.Map.find t.index key ~default:(-1)
let mem t key = slot t key >= 0
let evicted t = t.evicted

let unlink t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t slot =
  t.prev.(slot) <- -1;
  t.next.(slot) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- slot;
  t.head <- slot;
  if t.tail < 0 then t.tail <- slot

let promote t slot =
  if t.head <> slot then begin
    unlink t slot;
    push_front t slot
  end

let insert t key =
  let slot =
    match t.free with
    | slot :: rest ->
        t.free <- rest;
        t.evicted <- min_int;
        slot
    | [] ->
        let victim = t.tail in
        let victim_key = t.keys.(victim) in
        unlink t victim;
        Int_table.Map.remove t.index victim_key;
        t.length <- t.length - 1;
        t.evicted <- victim_key;
        victim
  in
  t.keys.(slot) <- key;
  Int_table.Map.replace t.index key slot;
  push_front t slot;
  t.length <- t.length + 1;
  slot

let touch t key =
  let s = slot t key in
  if s >= 0 then begin
    promote t s;
    `Hit
  end
  else begin
    let full = t.free = [] in
    ignore (insert t key);
    `Miss (if full then Some t.evicted else None)
  end

let remove t key =
  let s = slot t key in
  s >= 0
  && begin
       unlink t s;
       Int_table.Map.remove t.index key;
       t.free <- s :: t.free;
       t.length <- t.length - 1;
       true
     end

let clear t =
  Int_table.Map.clear t.index;
  t.head <- -1;
  t.tail <- -1;
  t.free <- List.init t.capacity (fun i -> i);
  t.length <- 0

let to_list t =
  let rec loop slot acc =
    if slot < 0 then List.rev acc else loop t.next.(slot) (t.keys.(slot) :: acc)
  in
  loop t.head []
