(* Tests for the virtual-memory substrate: tints, tint table, page table,
   TLB staleness semantics and the Figure 3 remap cost comparison. *)

module Bitmask = Cache.Bitmask
module Tint = Vm.Tint
module Tint_table = Vm.Tint_table
module Page_table = Vm.Page_table
module Tlb = Vm.Tlb
module Mapping = Vm.Mapping

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mask = Alcotest.testable Bitmask.pp Bitmask.equal

(* --- Tint --- *)

let test_tint_equality () =
  check_bool "same name equal" true (Tint.equal (Tint.make "blue") (Tint.make "blue"));
  check_bool "default is red" true (Tint.equal Tint.default (Tint.make "red"));
  check_bool "empty rejected" true
    (try ignore (Tint.make ""); false with Invalid_argument _ -> true)

(* --- Tint_table --- *)

let test_tint_table_default_full () =
  let t = Tint_table.create ~columns:4 in
  Alcotest.check mask "unmapped tint resolves to all columns"
    (Bitmask.full ~n:4)
    (Tint_table.lookup t (Tint.make "anything"))

let test_tint_table_set_lookup () =
  let t = Tint_table.create ~columns:4 in
  let blue = Tint.make "blue" in
  Tint_table.set t blue (Bitmask.singleton 1);
  Alcotest.check mask "mapped" (Bitmask.singleton 1) (Tint_table.lookup t blue);
  check_bool "mem" true (Tint_table.mem t blue);
  check_int "one write" 1 (Tint_table.writes t);
  Tint_table.remove t blue;
  Alcotest.check mask "back to full" (Bitmask.full ~n:4) (Tint_table.lookup t blue);
  check_int "remove counted" 2 (Tint_table.writes t)

let test_tint_table_rejects_bad_masks () =
  let t = Tint_table.create ~columns:4 in
  check_bool "empty mask" true
    (try Tint_table.set t Tint.default Bitmask.empty; false
     with Invalid_argument _ -> true);
  check_bool "out-of-range column" true
    (try Tint_table.set t Tint.default (Bitmask.singleton 7); false
     with Invalid_argument _ -> true)

(* --- Page_table --- *)

let test_page_table_addressing () =
  let pt = Page_table.create ~page_size:256 () in
  check_int "page of addr" 3 (Page_table.page_of_addr pt 777);
  check_int "base of page" 768 (Page_table.base_of_page pt 3);
  check_bool "non-pow2 rejected" true
    (try ignore (Page_table.create ~page_size:100 ()); false
     with Invalid_argument _ -> true)

let test_page_table_tints () =
  let pt = Page_table.create ~page_size:256 () in
  let blue = Tint.make "blue" in
  check_bool "default tint initially" true
    (Tint.equal (Page_table.tint_of_page pt 5) Tint.default);
  Page_table.set_tint pt ~page:5 blue;
  check_bool "tinted" true (Tint.equal (Page_table.tint_of_page pt 5) blue);
  check_bool "addr resolves" true
    (Tint.equal (Page_table.tint_of_addr pt (5 * 256)) blue);
  check_int "one pte write" 1 (Page_table.pte_writes pt);
  Alcotest.(check (list int)) "pages_with_tint" [ 5 ] (Page_table.pages_with_tint pt blue)

let test_page_table_region () =
  let pt = Page_table.create ~page_size:256 () in
  let green = Tint.make "green" in
  (* region straddling pages 1..3 *)
  let n = Page_table.set_tint_region pt ~base:300 ~size:600 green in
  check_int "three pages" 3 n;
  check_int "three pte writes" 3 (Page_table.pte_writes pt);
  Alcotest.(check (list int)) "pages" [ 1; 2; 3 ] (Page_table.pages_with_tint pt green)

let test_page_table_default_reset () =
  let pt = Page_table.create ~page_size:256 () in
  Page_table.set_tint pt ~page:2 (Tint.make "blue");
  Page_table.set_tint pt ~page:2 Tint.default;
  check_int "no explicit entries left" 0 (Page_table.entries pt)

(* --- TLB --- *)

let make_mapping () = Mapping.create ~tlb_entries:4 ~page_size:256 ~columns:4 ()

let test_tlb_hit_miss () =
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  let _, o1 = Tlb.lookup tlb 0 in
  let _, o2 = Tlb.lookup tlb 16 in
  (* same page *)
  check_bool "first is miss" true (o1 = Tlb.Miss);
  check_bool "second is hit" true (o2 = Tlb.Hit);
  check_int "hits" 1 (Tlb.hits tlb);
  check_int "misses" 1 (Tlb.misses tlb)

let test_tlb_capacity_eviction () =
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  (* touch 5 distinct pages; capacity is 4 -> page 0 evicted *)
  for p = 0 to 4 do
    ignore (Tlb.lookup_page tlb p)
  done;
  check_int "resident" 4 (List.length (Tlb.resident_pages tlb));
  let _, o = Tlb.lookup_page tlb 0 in
  check_bool "page 0 was evicted" true (o = Tlb.Miss)

let test_tlb_staleness () =
  (* A re-tinted page keeps serving the stale tint until flushed: the
     behaviour that forces Section 2.2's flush requirement. *)
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  let pt = Mapping.page_table m in
  let blue = Tint.make "blue" in
  ignore (Tlb.lookup_page tlb 1);
  Page_table.set_tint pt ~page:1 blue;
  let tint, _ = Tlb.lookup_page tlb 1 in
  check_bool "stale without flush" true (Tint.equal tint Tint.default);
  check_bool "flush finds entry" true (Tlb.flush_page tlb 1);
  let tint, o = Tlb.lookup_page tlb 1 in
  check_bool "fresh after flush" true (Tint.equal tint blue);
  check_bool "refetch was a miss" true (o = Tlb.Miss)

(* [lookup_page] is a wrapper over [lookup_page_quick]: two TLBs fed the
   same pages through either entry agree on every tint, outcome, counter
   and LRU order, and [last_evicted] reads right after a hit, a cold-fill
   miss and an evicting miss. *)
let test_tlb_quick_matches_lookup () =
  let pt = Page_table.create ~page_size:256 () in
  Page_table.set_tint pt ~page:3 (Tint.make "blue");
  let slow = Tlb.create ~entries:2 ~page_table:pt in
  let quick = Tlb.create ~entries:2 ~page_table:pt in
  let step page ~evicted =
    let tint, outcome = Tlb.lookup_page slow page in
    let m0 = Tlb.misses quick in
    let tint' = Tlb.lookup_page_quick quick page in
    let label = Printf.sprintf "page %d" page in
    check_bool (label ^ " tint") true (Tint.equal tint tint');
    check_bool (label ^ " outcome") (outcome = Tlb.Miss)
      (Tlb.misses quick <> m0);
    check_int (label ^ " last_evicted (slow)") evicted (Tlb.last_evicted slow);
    check_int (label ^ " last_evicted (quick)") evicted
      (Tlb.last_evicted quick);
    Alcotest.(check (list int))
      (label ^ " lru order") (Tlb.resident_pages slow)
      (Tlb.resident_pages quick)
  in
  step 1 ~evicted:min_int (* cold fill *);
  step 3 ~evicted:min_int (* cold fill *);
  step 1 ~evicted:min_int (* hit *);
  step 5 ~evicted:3 (* evicting miss: 3 is LRU *);
  step 3 ~evicted:1 (* evicting miss *);
  check_int "hits" 1 (Tlb.hits quick);
  check_int "misses" 4 (Tlb.misses quick);
  check_bool "flush_page finds 5" true (Tlb.flush_page quick 5);
  ignore (Tlb.flush_page slow 5);
  (* the re-lookup misses and refills the freed slot, evicting nothing *)
  step 5 ~evicted:min_int;
  check_int "re-lookup after flush_page missed" 5 (Tlb.misses quick);
  Alcotest.(check (list int)) "resident" [ 5; 3 ] (Tlb.resident_pages quick)

let test_tlb_full_flush () =
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  ignore (Tlb.lookup_page tlb 1);
  ignore (Tlb.lookup_page tlb 2);
  Tlb.flush tlb;
  check_int "nothing resident" 0 (List.length (Tlb.resident_pages tlb));
  check_int "flush counted" 1 (Tlb.flushes tlb)

let test_tlb_flush_mid_trace () =
  (* Hand-computed trace with a full flush in the middle:
       lookups 0,1,0,1 -> 2 misses then 2 hits;
       flush;
       lookups 0,1,0  -> 2 refetch misses then 1 hit.
     A re-tint applied while the pages sit flushed must be visible on the
     refetch without any per-page flushing. *)
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  let pt = Mapping.page_table m in
  List.iter (fun p -> ignore (Tlb.lookup_page tlb p)) [ 0; 1; 0; 1 ];
  check_int "hits before flush" 2 (Tlb.hits tlb);
  check_int "misses before flush" 2 (Tlb.misses tlb);
  Tlb.flush tlb;
  Page_table.set_tint pt ~page:0 (Tint.make "blue");
  List.iter (fun p -> ignore (Tlb.lookup_page tlb p)) [ 0; 1; 0 ];
  check_int "hits after flush" 3 (Tlb.hits tlb);
  check_int "misses after flush" 4 (Tlb.misses tlb);
  check_int "exactly one full flush" 1 (Tlb.flushes tlb);
  check_int "no per-entry flushes" 0 (Tlb.entry_flushes tlb);
  let tint, o = Tlb.lookup_page tlb 0 in
  check_bool "refetch saw the new tint" true (Tint.equal tint (Tint.make "blue"));
  check_bool "and it is now a hit" true (o = Tlb.Hit)

(* --- Mapping --- *)

let test_mapping_mask_resolution () =
  let m = make_mapping () in
  let blue = Tint.make "blue" in
  ignore (Mapping.retint_region m ~base:0 ~size:256 blue);
  Mapping.remap_tint m blue (Bitmask.singleton 2);
  let mask1, _ = Mapping.mask_of m 100 in
  Alcotest.check mask "tinted page" (Bitmask.singleton 2) mask1;
  let mask2, _ = Mapping.mask_of m 1000 in
  Alcotest.check mask "untinted page full" (Bitmask.full ~n:4) mask2

let test_mapping_remap_is_instant () =
  (* remap_tint changes the mask seen by already-TLB-resident pages without
     any PTE writes or flushes. *)
  let m = make_mapping () in
  let blue = Tint.make "blue" in
  ignore (Mapping.retint_region m ~base:0 ~size:256 blue);
  Mapping.remap_tint m blue (Bitmask.singleton 0);
  ignore (Mapping.mask_of m 0);
  (* TLB now caches page 0 -> blue *)
  let before = Mapping.cost m in
  Mapping.remap_tint m blue (Bitmask.singleton 3);
  let after = Mapping.cost m in
  let d = Mapping.cost_delta ~before ~after in
  check_int "no pte writes" 0 d.Mapping.pte_writes;
  check_int "no tlb flushes" 0 d.Mapping.tlb_entry_flushes;
  check_int "one table write" 1 d.Mapping.tint_table_writes;
  let mask', o = Mapping.mask_of m 0 in
  Alcotest.check mask "new mask visible through TLB hit" (Bitmask.singleton 3) mask';
  check_bool "served from TLB" true (o = Tlb.Hit)

let test_fig3_tints_vs_direct () =
  (* Paper Figure 3: a 20-page region initially mapped everywhere; give page
     0 its own column and exclude that column from the remaining pages.
     With tints: 1 PTE write + 2 tint-table writes. With raw bit vectors in
     PTEs: 20 PTE writes. *)
  let page_size = 256 and columns = 20 in
  let region_pages = 20 in

  (* tint scheme *)
  let m = Mapping.create ~page_size ~columns () in
  ignore
    (Mapping.retint_region m ~base:0 ~size:(region_pages * page_size) Tint.default);
  let before = Mapping.cost m in
  let blue = Tint.make "blue" in
  ignore (Mapping.retint_region m ~base:0 ~size:page_size blue);
  Mapping.remap_tint m blue (Bitmask.singleton 1);
  Mapping.remap_tint m Tint.default
    (Bitmask.complement ~n:columns (Bitmask.singleton 1));
  let d = Mapping.cost_delta ~before ~after:(Mapping.cost m) in
  check_int "tints: one PTE write" 1 d.Mapping.pte_writes;
  check_int "tints: two table writes" 2 d.Mapping.tint_table_writes;

  (* direct bit-vector scheme *)
  let dm = Vm.Direct_mapping.create ~page_size ~columns in
  ignore
    (Vm.Direct_mapping.set_mask_region dm ~base:0 ~size:(region_pages * page_size)
       (Bitmask.full ~n:columns));
  let before_writes = Vm.Direct_mapping.pte_writes dm in
  Vm.Direct_mapping.set_mask dm ~page:0 (Bitmask.singleton 1);
  ignore
    (Vm.Direct_mapping.set_mask_region dm ~base:page_size
       ~size:((region_pages - 1) * page_size)
       (Bitmask.complement ~n:columns (Bitmask.singleton 1)));
  let direct_writes = Vm.Direct_mapping.pte_writes dm - before_writes in
  check_int "direct: every PTE rewritten" region_pages direct_writes;
  (* resulting masks agree between the two schemes *)
  for page = 0 to region_pages - 1 do
    let addr = page * page_size in
    Alcotest.check mask
      (Printf.sprintf "page %d same mask" page)
      (Vm.Direct_mapping.mask_of dm addr)
      (Mapping.mask_of_quiet m addr)
  done

let test_retint_vs_remap_cost () =
  (* The paper's Section 2.2 asymmetry, hand-computed. Re-tinting pays one
     PTE write per page plus one TLB entry flush per *resident* page;
     re-mapping a tint is always a single tint-table write regardless of how
     many pages wear the tint. *)
  let m = make_mapping () in
  let tlb = Mapping.tlb m in
  let blue = Tint.make "blue" in
  (* make pages 0..2 TLB-resident; pages 4..5 stay cold *)
  List.iter (fun p -> ignore (Tlb.lookup_page tlb p)) [ 0; 1; 2 ];
  let before = Mapping.cost m in
  check_int "resident region re-tints 3 pages" 3
    (Mapping.retint_region m ~base:0 ~size:(3 * 256) blue);
  let d = Mapping.cost_delta ~before ~after:(Mapping.cost m) in
  check_int "one PTE write per page" 3 d.Mapping.pte_writes;
  check_int "one entry flush per resident page" 3 d.Mapping.tlb_entry_flushes;
  check_int "no tint-table writes" 0 d.Mapping.tint_table_writes;
  check_int "no full flushes" 0 d.Mapping.tlb_full_flushes;
  (* cold region: PTE writes still accrue, entry flushes do not *)
  let before = Mapping.cost m in
  check_int "cold region re-tints 2 pages" 2
    (Mapping.retint_region m ~base:(4 * 256) ~size:(2 * 256) blue);
  let d = Mapping.cost_delta ~before ~after:(Mapping.cost m) in
  check_int "cold pages: PTE writes" 2 d.Mapping.pte_writes;
  check_int "cold pages: no entry flushes" 0 d.Mapping.tlb_entry_flushes;
  (* remap: one table write moves all five blue pages at once *)
  let before = Mapping.cost m in
  Mapping.remap_tint m blue (Bitmask.singleton 3);
  let d = Mapping.cost_delta ~before ~after:(Mapping.cost m) in
  check_int "remap: single table write" 1 d.Mapping.tint_table_writes;
  check_int "remap: no PTE writes" 0 d.Mapping.pte_writes;
  check_int "remap: no entry flushes" 0 d.Mapping.tlb_entry_flushes;
  Alcotest.check mask "every blue page resolves to the new mask"
    (Bitmask.singleton 3)
    (Mapping.mask_of_quiet m (5 * 256))

(* --- Frame_map --- *)

let test_frame_map_identity_default () =
  let fm = Vm.Frame_map.create ~page_size:256 in
  check_int "identity translate" 0x12345 (Vm.Frame_map.translate fm 0x12345);
  check_int "identity frame" 7 (Vm.Frame_map.frame_of fm 7)

let test_frame_map_translate () =
  let fm = Vm.Frame_map.create ~page_size:256 in
  Vm.Frame_map.map_page fm ~page:2 ~frame:100;
  check_int "translated" ((100 * 256) + 17) (Vm.Frame_map.translate fm ((2 * 256) + 17));
  check_int "other pages untouched" 300 (Vm.Frame_map.translate fm 300)

let test_frame_map_collision () =
  let fm = Vm.Frame_map.create ~page_size:256 in
  Vm.Frame_map.map_page fm ~page:1 ~frame:50;
  check_bool "same frame rejected" true
    (try Vm.Frame_map.map_page fm ~page:2 ~frame:50; false
     with Invalid_argument _ -> true);
  (* re-placing the same page is fine and frees the old frame *)
  Vm.Frame_map.map_page fm ~page:1 ~frame:51;
  Vm.Frame_map.map_page fm ~page:2 ~frame:50

let test_frame_map_copy_accounting () =
  let fm = Vm.Frame_map.create ~page_size:256 in
  Vm.Frame_map.map_page fm ~page:0 ~frame:10;
  check_int "initial placement free" 0 (Vm.Frame_map.bytes_copied fm);
  Vm.Frame_map.remap_page fm ~page:0 ~frame:11;
  check_int "remap copies one page" 256 (Vm.Frame_map.bytes_copied fm);
  Vm.Frame_map.remap_page fm ~page:0 ~frame:12;
  check_int "copies accumulate" 512 (Vm.Frame_map.bytes_copied fm)

let test_frame_map_bad_page_size () =
  check_bool "non-pow2 rejected" true
    (try ignore (Vm.Frame_map.create ~page_size:100); false
     with Invalid_argument _ -> true)

(* --- properties --- *)

let prop_tlb_agrees_with_page_table =
  (* After arbitrary tint/flush operations, a TLB lookup following a flush
     always agrees with the page table. *)
  QCheck.Test.make ~name:"flushed TLB agrees with page table" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 40) (pair (int_bound 7) bool))
    (fun ops ->
      let m = make_mapping () in
      let tlb = Mapping.tlb m in
      let pt = Mapping.page_table m in
      List.iter
        (fun (page, tintit) ->
          if tintit then
            Page_table.set_tint pt ~page (Tint.make (Printf.sprintf "t%d" (page mod 3)))
          else ignore (Tlb.lookup_page tlb page))
        ops;
      Tlb.flush tlb;
      List.for_all
        (fun page ->
          let tint, _ = Tlb.lookup_page tlb page in
          Tint.equal tint (Page_table.tint_of_page pt page))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let prop_mask_of_never_empty =
  QCheck.Test.make ~name:"mask_of never returns an empty mask" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (int_bound 4095))
    (fun addrs ->
      let m = make_mapping () in
      Mapping.remap_tint m (Tint.make "t") (Bitmask.singleton 0);
      List.for_all
        (fun addr ->
          let mask, _ = Mapping.mask_of m addr in
          not (Bitmask.is_empty mask))
        addrs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tlb_agrees_with_page_table; prop_mask_of_never_empty ]

let suites =
  [
    ( "vm.tint",
      [
        Alcotest.test_case "equality" `Quick test_tint_equality;
        Alcotest.test_case "table default full" `Quick test_tint_table_default_full;
        Alcotest.test_case "table set/lookup" `Quick test_tint_table_set_lookup;
        Alcotest.test_case "table rejects bad masks" `Quick test_tint_table_rejects_bad_masks;
      ] );
    ( "vm.page_table",
      [
        Alcotest.test_case "addressing" `Quick test_page_table_addressing;
        Alcotest.test_case "tints" `Quick test_page_table_tints;
        Alcotest.test_case "region" `Quick test_page_table_region;
        Alcotest.test_case "default reset" `Quick test_page_table_default_reset;
      ] );
    ( "vm.tlb",
      [
        Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
        Alcotest.test_case "capacity eviction" `Quick test_tlb_capacity_eviction;
        Alcotest.test_case "staleness until flush" `Quick test_tlb_staleness;
        Alcotest.test_case "full flush" `Quick test_tlb_full_flush;
        Alcotest.test_case "quick lookup = lookup" `Quick
          test_tlb_quick_matches_lookup;
        Alcotest.test_case "flush mid-trace" `Quick test_tlb_flush_mid_trace;
      ] );
    ( "vm.frame_map",
      [
        Alcotest.test_case "identity default" `Quick test_frame_map_identity_default;
        Alcotest.test_case "translate" `Quick test_frame_map_translate;
        Alcotest.test_case "collision" `Quick test_frame_map_collision;
        Alcotest.test_case "copy accounting" `Quick test_frame_map_copy_accounting;
        Alcotest.test_case "bad page size" `Quick test_frame_map_bad_page_size;
      ] );
    ( "vm.mapping",
      [
        Alcotest.test_case "mask resolution" `Quick test_mapping_mask_resolution;
        Alcotest.test_case "remap is instant" `Quick test_mapping_remap_is_instant;
        Alcotest.test_case "fig3 tints vs direct" `Quick test_fig3_tints_vs_direct;
        Alcotest.test_case "retint vs remap cost" `Quick test_retint_vs_remap_cost;
      ] );
    ("vm.properties", qcheck_cases);
  ]
