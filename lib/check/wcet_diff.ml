(* Differential check for the abstract-interpretation cache analysis:
   generate a small well-formed IF program, compute its static miss
   bound, then replay the interpreter's concrete trace through the real
   LRU simulator and demand that reality never exceeds the bound. *)

module CA = Ir.Cache_analysis
module Build = Ir.Build
module Prng = Workloads.Prng

(* --- random analyzable programs ----------------------------------------- *)

(* The generator sticks to the analyzable core of the IF language:
   constant loop bounds, terminating counter-Whiles, indices clamped
   in-bounds with [max'/%] so the interpreter never traps. Programs are
   deliberately tiny — the soak runs tens of thousands of them. *)

type genv = {
  rng : Prng.t;
  arrays : (string * int) array;  (* name, elems *)
  scalars : string array;
  mutable regs : string list;  (* loop registers in scope *)
  mutable whiles : int;  (* terminating Whiles already emitted *)
}

let fresh_reg =
  let names = [| "i"; "j"; "k"; "l" |] in
  fun depth -> names.(depth mod Array.length names)

let gen_index env (elems : int) =
  match Prng.int env.rng 4 with
  | 0 -> Build.i (Prng.int env.rng elems)
  | 1 | 2 -> (
      match env.regs with
      | [] -> Build.i (Prng.int env.rng elems)
      | regs ->
          (* Loop registers are always >= 0 here, so [% elems] stays
             in bounds. *)
          let offset = Prng.int env.rng 4 in
          let scale = 1 + Prng.int env.rng 2 in
          let open Build in
          let reg = r (Prng.choose env.rng regs) in
          let e =
            match Prng.int env.rng 3 with
            | 0 -> reg
            | 1 -> reg + i offset
            | _ -> reg * i scale
          in
          e % i elems)
  | _ ->
      (* Data-dependent: a scalar value the analysis cannot see.
         Scalars may go negative, so clamp both sides. *)
      let sc = env.scalars.(Prng.int env.rng (Array.length env.scalars)) in
      let last = elems - 1 in
      let open Build in
      max' (min' (s sc % i elems) (i last)) (i 0)

let gen_expr env depth =
  let open Build in
  let leaf () =
    match Prng.int env.rng 4 with
    | 0 -> i (Prng.int_in env.rng ~lo:(-4) ~hi:8)
    | 1 ->
        let name, elems = env.arrays.(Prng.int env.rng (Array.length env.arrays)) in
        ld name (gen_index env elems)
    | 2 -> s env.scalars.(Prng.int env.rng (Array.length env.scalars))
    | _ -> (
        match env.regs with
        | [] -> i (Prng.int env.rng 4)
        | regs -> r (Prng.choose env.rng regs))
  in
  if depth <= 0 || Prng.bool env.rng then leaf ()
  else
    let a = leaf () and b = leaf () in
    match Prng.int env.rng 4 with
    | 0 -> a + b
    | 1 -> a - b
    | 2 -> min' a b
    | _ -> max' a b

let gen_cond env =
  let open Build in
  let prob = 0.05 +. (0.9 *. Prng.float env.rng) in
  let lhs = gen_expr env 1 and rhs = gen_expr env 1 in
  match Prng.int env.rng 3 with
  | 0 -> lt ~prob lhs rhs
  | 1 -> le ~prob lhs rhs
  | _ -> ne ~prob lhs rhs

let rec gen_stmt env depth =
  let pick = Prng.int env.rng (if depth >= 2 then 4 else 7) in
  match pick with
  | 0 | 1 ->
      let sc = env.scalars.(Prng.int env.rng (Array.length env.scalars)) in
      [ Build.set sc (gen_expr env 2) ]
  | 2 | 3 ->
      let name, elems = env.arrays.(Prng.int env.rng (Array.length env.arrays)) in
      [ Build.st name (gen_index env elems) (gen_expr env 1) ]
  | 4 ->
      let reg = fresh_reg depth in
      let lo = Prng.int env.rng 3 in
      let hi = lo + Prng.int env.rng 8 in
      let saved = env.regs in
      env.regs <- reg :: env.regs;
      let body = gen_body env (depth + 1) in
      env.regs <- saved;
      [ Build.for_ reg (Build.i lo) (Build.i hi) body ]
  | 5 when env.whiles < 1 ->
      (* A terminating counter-While: the counter scalar is reserved for
         the loop so the body cannot perturb it. *)
      env.whiles <- env.whiles + 1;
      let n = 1 + Prng.int env.rng 5 in
      let body = gen_body env (depth + 1) in
      let open Build in
      [
        set "wc" (i 0);
        while_
          (lt (s "wc") (i n))
          ~est_iterations:n
          (body @ [ set "wc" (s "wc" + i 1) ]);
      ]
  | _ ->
      let c = gen_cond env in
      let then_ = gen_body env (depth + 1) in
      if Prng.bool env.rng then [ Build.if_ c then_ ]
      else [ Build.if_else c then_ (gen_body env (depth + 1)) ]

and gen_body env depth =
  let n = 1 + Prng.int env.rng (if depth >= 2 then 2 else 3) in
  List.concat (List.init n (fun _ -> gen_stmt env depth))

let gen_program rng =
  let n_arrays = 1 + Prng.int rng 2 in
  let arrays =
    Array.init n_arrays (fun k ->
        (Printf.sprintf "a%d" k, 4 * (1 + Prng.int rng 6)))
  in
  let n_scalars = 1 + Prng.int rng 2 in
  let scalars = Array.init n_scalars (fun k -> Printf.sprintf "s%d" k) in
  let env = { rng; arrays; scalars; regs = []; whiles = 0 } in
  let body = gen_body env 0 in
  let open Build in
  let vars =
    List.concat
      [
        Array.to_list (Array.map (fun (n, e) -> array n ~elems:e ()) arrays);
        Array.to_list (Array.map (fun n -> scalar n ()) scalars);
        [ scalar "wc" () ];
      ]
  in
  program ~vars [ proc "main" body ]

let gen_geometry rng =
  let sets = 1 lsl Prng.int rng 3 in
  let ways = 1 + Prng.int rng 4 in
  { CA.line_size = 16; sets; ways }

(* --- the check ----------------------------------------------------------- *)

let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

let run_one ?bug ~seed () =
  let unsound_join = bug = Some Oracle.Wcet in
  let rng = Prng.create ~seed in
  let program = gen_program rng in
  let geom = gen_geometry rng in
  match
    let t = CA.analyze ~unsound_join geom program ~proc:"main" in
    let layout = Ir.Interp.sequential_layout program in
    let trace = Ir.Interp.trace_of program ~proc:"main" ~layout in
    (t, trace)
  with
  | exception exn ->
      fail "seed %d: analysis/replay raised %s" seed (Printexc.to_string exn)
  | t, trace ->
      let cache =
        Cache.Sassoc.create
          (Cache.Sassoc.config ~line_size:geom.CA.line_size
             ~size_bytes:(geom.CA.line_size * geom.CA.sets * max 1 geom.CA.ways)
             ~ways:(max 1 geom.CA.ways) ())
      in
      let per_var = Hashtbl.create 8 in
      let misses = ref 0 in
      let writes = ref 0 in
      Memtrace.Trace.iter
        (fun (a : Memtrace.Access.t) ->
          if a.kind = Memtrace.Access.Write then incr writes;
          match Cache.Sassoc.access_record cache a with
          | Cache.Sassoc.Hit _ -> ()
          | Cache.Sassoc.Miss _ ->
              incr misses;
              Option.iter
                (fun v ->
                  Hashtbl.replace per_var v
                    (1 + Option.value (Hashtbl.find_opt per_var v) ~default:0))
                a.var)
        trace;
      let problem fmt =
        Format.kasprintf
          (fun detail ->
            Error
              (Format.asprintf "seed %d: %s@.geometry %dB x %d sets x %d ways@.%a"
                 seed detail geom.CA.line_size geom.CA.sets geom.CA.ways
                 Ir.Ast.pp_program program))
          fmt
      in
      let n = Memtrace.Trace.length trace in
      let check_accesses () =
        match t.CA.accesses with
        | Some bound when bound < n ->
            problem "access bound %d < %d emitted" bound n
        | _ -> Ok ()
      in
      let check_writes () =
        match t.CA.writes with
        | Some bound when bound < !writes ->
            problem "write bound %d < %d emitted" bound !writes
        | _ -> Ok ()
      in
      let check_misses () =
        match t.CA.wcet_misses with
        | Some bound when geom.CA.ways > 0 && bound < !misses ->
            problem "static miss bound %d < %d observed misses" bound !misses
        | _ -> Ok ()
      in
      (* Any variable every one of whose access sites is classified
         always-hit must replay without a single miss. *)
      let check_always_hit () =
        let by_var = Hashtbl.create 8 in
        List.iter
          (fun st ->
            let all_hit =
              st.CA.classification = CA.Always_hit
              && Option.value (Hashtbl.find_opt by_var st.CA.var) ~default:true
            in
            Hashtbl.replace by_var st.CA.var all_hit)
          t.CA.sites;
        Hashtbl.fold
          (fun v all_hit acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                let observed =
                  Option.value (Hashtbl.find_opt per_var v) ~default:0
                in
                if all_hit && observed > 0 then
                  problem "var %s is all always-hit yet missed %d times" v
                    observed
                else Ok ())
          by_var (Ok ())
      in
      let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
      check_accesses () >>= check_writes >>= check_misses >>= check_always_hit
