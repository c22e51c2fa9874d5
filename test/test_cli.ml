(* End-to-end checks of the colcache command line: each bad geometry or
   sampling knob of [colcache mrc], and each bad generator knob of
   [colcache gen], exits 1 with an error naming that flag and its value,
   never a --jobs error or an uncaught exception. The
   executable is a declared dependency of the test runner, built next to
   it. *)

let exe = Filename.concat (Filename.concat ".." "bin") "colcache_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* Run [colcache args]; returns exit code and the merged stdout/stderr. *)
let run_exe args =
  let out = Filename.temp_file "colcache_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command (Filename.quote_command exe ~stdout:out ~stderr:out args)
      in
      (code, read_file out))

(* Run [colcache mrc TRACE args] on a small packed trace. *)
let run_cli args =
  let trace = Filename.temp_file "colcache_cli" ".pk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
    (fun () ->
      Memtrace.Packed.write_file trace
        (Memtrace.Packed.of_list
           (List.init 64 (fun i ->
                Memtrace.Access.make ~kind:Memtrace.Access.Read (i * 16))));
      run_exe ("mrc" :: trace :: args))

let expect_error run args ~message () =
  let code, output = run args in
  Alcotest.(check int) "exit status" 1 code;
  if not (contains output message) then
    Alcotest.failf "expected %S in the output, got %S" message output

let expect_knob_error = expect_error run_cli
let expect_gen_error args = expect_error run_exe ("gen" :: args)

let test_accepts_defaults () =
  let code, output = run_cli [] in
  Alcotest.(check int) "exit status" 0 code;
  Alcotest.(check bool) "prints the curve" true
    (contains output "exact miss-ratio curve")

let test_gen_accepts_defaults () =
  let code, output = run_exe [ "gen" ] in
  Alcotest.(check int) "exit status" 0 code;
  Alcotest.(check bool) "reports the trace" true
    (contains output "4096 accesses in 512 requests")

let suites =
  [
    ( "cli.mrc",
      [
        Alcotest.test_case "defaults accepted" `Quick test_accepts_defaults;
        Alcotest.test_case "--sets 0 names --sets" `Quick
          (expect_knob_error [ "--sets"; "0" ]
             ~message:"--sets must be a positive power of two, got 0");
        Alcotest.test_case "--sets 3 names --sets" `Quick
          (expect_knob_error [ "--sets"; "3" ]
             ~message:"--sets must be a positive power of two, got 3");
        Alcotest.test_case "--ways 0 names --ways" `Quick
          (expect_knob_error [ "--ways"; "0" ]
             ~message:"--ways must be positive, got 0");
        Alcotest.test_case "--line-size 3 names --line-size" `Quick
          (expect_knob_error [ "--line-size"; "3" ]
             ~message:"--line-size must be a positive power of two, got 3");
        Alcotest.test_case "--sample-rate 2 names --sample-rate" `Quick
          (expect_knob_error [ "--sample-rate"; "2" ]
             ~message:"--sample-rate must be in (0, 1], got 2");
        Alcotest.test_case "--budget 0 names --budget" `Quick
          (expect_knob_error [ "--sample-rate"; "0.5"; "--budget"; "0" ]
             ~message:"--budget must be positive, got 0");
      ] );
      ( "cli.gen",
      [
        Alcotest.test_case "defaults accepted" `Quick test_gen_accepts_defaults;
        Alcotest.test_case "--items 0 names --items" `Quick
          (expect_gen_error [ "--items"; "0" ]
             ~message:"--items must be positive, got 0");
        Alcotest.test_case "--dist kv --items 0 names --items" `Quick
          (expect_gen_error [ "--dist"; "kv"; "--items"; "0" ]
             ~message:"--items must be positive, got 0");
        Alcotest.test_case
          "--accesses-per-request 0 names --accesses-per-request" `Quick
          (expect_gen_error [ "--accesses-per-request"; "0" ]
             ~message:"--accesses-per-request must be positive, got 0");
        Alcotest.test_case "-n -1 names -n" `Quick
          (expect_gen_error [ "-n-1" ]
             ~message:"-n must be non-negative, got -1");
        Alcotest.test_case "--theta -1 names --theta" `Quick
          (expect_gen_error [ "--theta=-1" ]
             ~message:"--theta must be non-negative, got -1");
      ] );
  ]
