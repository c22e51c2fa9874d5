(* In-memory spans around the benchmark's calls into the library.

   A span is (name, start, stop, parent, workload). Spans are only recorded
   while [enabled] is set (the traced run); otherwise [with_] is a plain
   call. Everything stays in memory until [write] at exit. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let workload = ref ""
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id = !next_id; name; parent; start = Unix.gettimeofday (); stop = nan }
    in
    incr next_id;
    recorded := s :: !recorded;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

let duration s = s.stop -. s.start

(* Self time of each span: its duration minus the time its direct children
   cover (children never overlap: calls are sequential). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

(* Total self time per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and totals = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.name with
      | Some (t, n) -> Hashtbl.replace totals s.name (t +. self, n + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.add totals s.name (self, 1))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let spans () = List.rev !recorded

let write path =
  let oc = open_out path in
  let all = spans () in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"workload\": %S, \
         \"start\": %.6f, \"end\": %.6f, \"self_s\": %.6f}\n"
        s.id s.name s.parent !workload s.start s.stop self)
    (self_times all);
  close_out oc
