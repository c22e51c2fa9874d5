(* Tests for [Cache.Line_set], the paged line bitmap behind the cold-line
   memories: a model test against Stdlib [Hashtbl] over lines that stress
   the page split (line 0, negatives, lines near [max_int lsr 4], dense runs
   across page boundaries, sparse strides), [union_into] against the model
   union, the no-page-until-first-add promise, and a [Sampled] engine over
   4096 sets, whose per-set engines now see tags instead of lines. *)

module Line_set = Cache.Line_set
module Stack_dist = Cache.Stack_dist
module Sampled = Cache.Stack_dist.Sampled

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Batches of lines: each batch is one of the shapes a line memory meets. *)
let gen_batch =
  QCheck.Gen.(
    let near_top = max_int lsr 4 in
    frequency
      [
        (2, map (fun k -> [ k ]) (oneofl [ 0; 1; -1; near_top; near_top - 1 ]));
        (* a dense run crossing page boundaries wherever it starts *)
        ( 4,
          map2
            (fun start len -> List.init len (fun i -> start + i))
            (int_range (-2000) 5000) (int_range 1 1500) );
        ( 2,
          map2
            (fun start len -> List.init len (fun i -> near_top - start - i))
            (int_range 0 3000) (int_range 1 600) );
        (* sparse strides: one line per page, or a few per page *)
        ( 3,
          map3
            (fun stride start len ->
              List.init len (fun i -> start + (i * stride)))
            (oneofl [ 128; 4096 ]) (int_range 0 100_000) (int_range 1 300) );
        (1, map (fun k -> [ k ]) int);
      ])

let arb_batches =
  QCheck.make
    ~print:(fun bs ->
      String.concat " | "
        (List.map (fun b -> String.concat "," (List.map string_of_int b)) bs))
    QCheck.Gen.(list_size (int_range 1 12) gen_batch)

let prop_model =
  QCheck.Test.make ~name:"line_set matches Hashtbl" ~count:200 arb_batches
    (fun batches ->
      let s = Line_set.create () in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun line ->
          let fresh = not (Hashtbl.mem model line) in
          Hashtbl.replace model line ();
          Line_set.add s line = fresh
          && Line_set.length s = Hashtbl.length model)
        (List.concat batches))

let of_list lines =
  let s = Line_set.create () in
  List.iter (fun l -> ignore (Line_set.add s l)) lines;
  s

(* After [union_into dst src], [dst] holds exactly the model union: its
   count matches, every member is already present, and a line outside both
   is still new; [src] is left as it was. *)
let union_agrees a b =
  let dst = of_list a and src = of_list b in
  Line_set.union_into dst src;
  let union = List.sort_uniq compare (a @ b) in
  let outside =
    List.filter (fun l -> not (List.mem l union)) [ 0; 7; 200; -5; 1 lsl 40 ]
  in
  Line_set.length dst = List.length union
  && Line_set.length src = List.length (List.sort_uniq compare b)
  && List.for_all (fun l -> not (Line_set.add dst l)) union
  && List.for_all (fun l -> not (Line_set.add src l)) b
  && List.for_all (fun l -> Line_set.add dst l) outside

let prop_union =
  QCheck.Test.make ~name:"union_into matches the model union" ~count:200
    (QCheck.pair arb_batches arb_batches) (fun (a, b) ->
      union_agrees (List.concat a) (List.concat b))

let test_union_cases () =
  let evens = List.init 600 (fun i -> 2 * i) in
  let odds = List.init 600 (fun i -> (2 * i) + 1) in
  check_bool "disjoint lines sharing pages" true (union_agrees evens odds);
  check_bool "disjoint pages" true
    (union_agrees evens (List.map (fun l -> l + 100_000) evens));
  check_bool "overlapping" true
    (union_agrees evens (List.init 600 (fun i -> 3 * i)));
  check_bool "identical" true (union_agrees odds odds);
  check_bool "into empty" true (union_agrees [] odds);
  check_bool "from empty" true (union_agrees odds []);
  let s = of_list evens in
  Line_set.union_into s s;
  check_int "self union" 600 (Line_set.length s)

(* A set that allocated its first page on [create] would not grow by a
   page's worth of words on its first [add]. *)
let test_no_page_until_add () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let s = Line_set.create () in
  let empty = words s in
  check_int "empty length" 0 (Line_set.length s);
  check_bool "first add is new" true (Line_set.add s 12345);
  check_bool "the first add allocates the page" true (words s >= empty + 2)

(* Sets 4096 apart, so every line of a selected set used to land on its
   own page; the per-set engines now see tags. Every reading must equal an
   exact engine's fed the accesses the sampler kept. *)
let test_sampled_4096_sets () =
  let trace =
    Workloads.Gen.emit ~seed:5 ~n:40_000
      (Workloads.Gen.Zipf { items = 1 lsl 18; theta = 0.7 })
  in
  let packed = trace.Workloads.Gen.packed in
  let line_size = 16 and sets = 4096 and max_ways = 4 in
  let s = Sampled.create ~seed:3 ~rate:0.1 ~line_size ~sets ~max_ways () in
  let exact = Stack_dist.create ~line_size ~sets ~max_ways () in
  let addrs = Memtrace.Packed.raw_addrs packed in
  let kinds = Memtrace.Packed.raw_kinds packed in
  for i = 0 to Memtrace.Packed.length packed - 1 do
    let addr = addrs.{i} in
    let kind =
      if kinds.{i} = '\001' then Memtrace.Access.Write else Memtrace.Access.Read
    in
    Sampled.access s ~kind addr;
    if Sampled.would_sample s addr then Stack_dist.access exact ~kind addr
  done;
  check_bool "some sets selected" true (Sampled.selected_sets s > 100);
  check_int "sampled accesses" (Stack_dist.accesses exact)
    (Sampled.sampled_accesses s);
  check_int "distinct sampled lines" (Stack_dist.distinct_lines exact)
    (Sampled.distinct_sampled_lines s);
  check_bool "raw miss curve" true
    (Sampled.raw_miss_curve s = Stack_dist.miss_curve exact);
  let scaled n = Sampled.scale s *. float_of_int n in
  for ways = 1 to max_ways do
    let label what = Printf.sprintf "%s@%d" what ways in
    check_bool (label "misses") true
      (Sampled.misses_est s ~ways = scaled (Stack_dist.misses exact ~ways));
    check_bool (label "evictions") true
      (Sampled.evictions_est s ~ways = scaled (Stack_dist.evictions exact ~ways));
    check_bool (label "writebacks") true
      (Sampled.writebacks_est s ~ways
      = scaled (Stack_dist.writebacks exact ~ways))
  done

let suites =
  [
    ( "cache.line_set",
      [
        QCheck_alcotest.to_alcotest prop_model;
        QCheck_alcotest.to_alcotest prop_union;
        Alcotest.test_case "union cases" `Quick test_union_cases;
        Alcotest.test_case "no page until the first add" `Quick
          test_no_page_until_add;
        Alcotest.test_case "sampled engine over 4096 sets" `Quick
          test_sampled_4096_sets;
      ] );
  ]
