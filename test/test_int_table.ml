(* Model tests for [Cache.Int_table.Map] against Stdlib [Hashtbl]: random
   operation sequences over keys that include [min_int] (the free-slot
   sentinel), [max_int], negatives and strided values, long enough to grow
   the table through several resizes; plus an exhaustive small-table
   deletion check, where backward-shift runs wrap past the array's end. *)

module Int_table = Cache.Int_table

type op =
  | Add of int  (* replace k k *)
  | Replace of int * int
  | Find of int
  | Remove of int
  | Iter
  | Clear

let pp_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Iter -> "iter"
  | Clear -> "clear"

let gen_key =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-40) 40);
        (2, map (fun x -> x * 4096) (int_range (-30) 30));
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1; 0 ]);
        (2, int);
      ])

(* Mostly inserts, so sequences reach a few hundred keys (several
   doublings from the initial eight slots); a rare [Clear] restarts. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        (80, map (fun k -> Add k) gen_key);
        (30, map2 (fun k v -> Replace (k, v)) gen_key int);
        (50, map (fun k -> Find k) gen_key);
        (40, map (fun k -> Remove k) gen_key);
        (5, return Iter);
        (1, return Clear);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 800) gen_op)

(* Only keys named by some op can ever be inserted, so probing every one of
   them after each op also catches a key the map should not hold. *)
let prop_map_model =
  QCheck.Test.make ~name:"int_table map matches Hashtbl" ~count:300 arb_ops
    (fun ops ->
      let m = Int_table.Map.create 0 in
      let model = Hashtbl.create 16 in
      (* a default no generated value hits by chance *)
      let default = 0x2BADBEEF in
      let keys =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Add k | Replace (k, _) | Find k | Remove k -> Some k
               | Iter | Clear -> None)
             ops)
      in
      let agrees k =
        Int_table.Map.find m k ~default
        = Option.value (Hashtbl.find_opt model k) ~default
      in
      List.for_all
        (fun op ->
          match op with
          | Add k ->
              Int_table.Map.replace m k k;
              Hashtbl.replace model k k;
              agrees k
          | Replace (k, v) ->
              Int_table.Map.replace m k v;
              Hashtbl.replace model k v;
              agrees k
          | Find k -> agrees k
          | Remove k ->
              Int_table.Map.remove m k;
              Hashtbl.remove model k;
              agrees k
          | Iter -> List.for_all agrees keys
          | Clear ->
              Int_table.Map.clear m;
              Hashtbl.reset model;
              List.for_all agrees keys)
        ops
      && List.for_all agrees keys)

(* Every 4-subset of 0..15 (the most an eight-slot table holds before it
   grows), inserted then removed one key at a time in two orders; every
   surviving key must still be found with its value. Across the 1820
   subsets, probe runs that wrap from the last slot to slot 0 and get
   closed by backward shifts are certain to occur. *)
let test_map_small_table_deletes () =
  let keys = List.init 16 Fun.id in
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.iter
    (fun subset ->
      List.iter
        (fun order ->
          let m = Int_table.Map.create 0 in
          List.iter (fun k -> Int_table.Map.replace m k (k + 100)) subset;
          let live = ref subset in
          List.iter
            (fun k ->
              Int_table.Map.remove m k;
              live := List.filter (( <> ) k) !live;
              List.iter
                (fun k' ->
                  if Int_table.Map.find m k' ~default:(-1) <> k' + 100 then
                    Alcotest.failf "subset [%s]: lost %d after removing %d"
                      (String.concat ";" (List.map string_of_int subset))
                      k' k)
                !live;
              if Int_table.Map.find m k ~default:(-1) <> -1 then
                Alcotest.failf "removed key %d still found" k)
            order)
        [ subset; List.rev subset ])
    (subsets 4 keys)

let test_sentinel_key () =
  let m = Int_table.Map.create 0 in
  Int_table.Map.replace m min_int 7;
  Alcotest.(check int) "find min_int" 7
    (Int_table.Map.find m min_int ~default:0);
  Int_table.Map.remove m min_int;
  Alcotest.(check int) "removed" 0 (Int_table.Map.find m min_int ~default:0)

let suites =
  [
    ( "cache.int_table",
      [
        Alcotest.test_case "sentinel key" `Quick test_sentinel_key;
        Alcotest.test_case "small-table deletes" `Quick
          test_map_small_table_deletes;
        QCheck_alcotest.to_alcotest prop_map_model;
      ] );
  ]
