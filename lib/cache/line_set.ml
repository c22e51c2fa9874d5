(* A paged bitmap: line [l] is bit [l land (page_lines - 1)] of page
   [l asr page_bits]. Pages are [page_bytes]-byte slots of one growable
   arena, handed out in first-touch order; [pages] maps a page number to
   its slot's byte offset and [ids] maps a slot back to its page number.
   [asr] keeps the split a bijection over every int, so negative lines need
   no special case, and no line has page [min_int], which therefore marks
   an empty memo. *)

let page_bits = 7
let page_lines = 1 lsl page_bits
let page_bytes = page_lines / 8

type t = {
  pages : Int_table.Map.t;  (* page number -> byte offset in [bits] *)
  mutable bits : Bytes.t;
  mutable ids : int array;  (* page number of each slot; same capacity *)
  mutable n_pages : int;  (* slots handed out *)
  mutable count : int;
  (* one-entry memo: the page of the last lookup and its offset *)
  mutable last_page : int;
  mutable last_off : int;
}

let create () =
  {
    pages = Int_table.Map.create 0;
    bits = Bytes.empty;
    ids = [||];
    n_pages = 0;
    count = 0;
    last_page = min_int;
    last_off = 0;
  }

let length t = t.count

(* A fresh zero page for [page]; the arena doubles when full. *)
let new_page t page =
  let slot = t.n_pages in
  if slot = Array.length t.ids then begin
    let cap = max 1 (2 * slot) in
    let bits = Bytes.make (cap * page_bytes) '\000' in
    Bytes.blit t.bits 0 bits 0 (slot * page_bytes);
    t.bits <- bits;
    let ids = Array.make cap 0 in
    Array.blit t.ids 0 ids 0 slot;
    t.ids <- ids
  end;
  t.ids.(slot) <- page;
  t.n_pages <- slot + 1;
  let off = slot * page_bytes in
  Int_table.Map.replace t.pages page off;
  off

let page_offset t page =
  if page = t.last_page then t.last_off
  else begin
    let off = Int_table.Map.find t.pages page ~default:(-1) in
    let off = if off >= 0 then off else new_page t page in
    t.last_page <- page;
    t.last_off <- off;
    off
  end

let add t line =
  let bit = line land (page_lines - 1) in
  let i = page_offset t (line asr page_bits) + (bit lsr 3) in
  let b = Char.code (Bytes.unsafe_get t.bits i) in
  let m = 1 lsl (bit land 7) in
  b land m = 0
  && begin
       Bytes.unsafe_set t.bits i (Char.unsafe_chr (b lor m));
       t.count <- t.count + 1;
       true
     end

let popcount8 b =
  let b = b - ((b lsr 1) land 0x55) in
  let b = (b land 0x33) + ((b lsr 2) land 0x33) in
  (b + (b lsr 4)) land 0x0f

(* [src]'s slots in arena order: both arenas are laid out in first-touch
   order, so for shards of one trace the walk is close to sequential in
   both. *)
let union_into dst src =
  if dst != src then
    for s = 0 to src.n_pages - 1 do
      let doff = page_offset dst src.ids.(s) in
      let soff = s * page_bytes in
      for k = 0 to page_bytes - 1 do
        let d = Char.code (Bytes.unsafe_get dst.bits (doff + k)) in
        let fresh =
          Char.code (Bytes.unsafe_get src.bits (soff + k)) land lnot d
        in
        if fresh <> 0 then begin
          Bytes.unsafe_set dst.bits (doff + k) (Char.unsafe_chr (d lor fresh));
          dst.count <- dst.count + popcount8 fresh
        end
      done
    done
