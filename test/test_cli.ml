(* The hqs command line's configuration contract, driven through the
   built binary: every solve setting is a flag and no environment
   variable reaches the solver, `hqs sweep` takes --check, a malformed
   setting is a usage error (exit 2) on every subcommand that takes it,
   and chaos points arm injection without a seed. Tests run from
   _build/default/test, so the binary sits one directory up. *)

let cli = "../bin/hqs_cli.exe"
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let write_instance tag (inst : Circuit.Families.instance) =
  let path = Filename.temp_file tag ".dqdimacs" in
  at_exit (fun () -> Sys.remove path);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Dqbf.Pcnf.to_string inst.Circuit.Families.pcnf));
  path

(* an instance that reaches MaxSAT set selection *)
let adder = lazy (write_instance "cli_adder" (Circuit.Families.adder ~bits:3 ~boxes:2 ~fault:false))

(* one that both solvers of a sweep decide in milliseconds *)
let xor = lazy (write_instance "cli_xor" (Circuit.Families.pec_xor ~length:3 ~boxes:1 ~fault:false))

(* exit code, stdout and stderr of one shell command *)
let run cmd =
  let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        match
          Unix.system (Printf.sprintf "%s >%s 2>%s" cmd (Filename.quote out) (Filename.quote err))
        with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

let test_environment_ignored () =
  let file = Lazy.force adder in
  let trace = Filename.temp_file "cli" ".json" and cert = Filename.temp_file "cli" ".cert" in
  Sys.remove trace;
  Sys.remove cert;
  let code, _, err =
    run
      (Printf.sprintf
         "HQS_CHECK=full HQS_INPROC=full HQS_DEP_SCHEME=trivial HQS_TRACE=%s HQS_CERTIFY=%s %s \
          %s --stats"
         (Filename.quote trace) (Filename.quote cert) cli (Filename.quote file))
  in
  check_int "SAT" 10 code;
  List.iter
    (fun echo -> check ("stats echo " ^ echo) true (contains err (" " ^ echo ^ " ")))
    [ "check-level=off"; "inproc=on"; "dep-scheme=rp" ];
  check "no trace written" false (Sys.file_exists trace);
  check "no certificate written" false (Sys.file_exists cert)

let test_sweep_check () =
  let file = Lazy.force xor in
  let code, csv, _ = run (Printf.sprintf "%s sweep %s --check full --timeout 10" cli file) in
  check_int "clean sweep" 0 code;
  match String.split_on_char '\n' csv with
  | header :: row :: _ ->
      let cells line = Array.of_list (String.split_on_char ',' line) in
      let column =
        match Array.find_index (String.equal "hqs_checks") (cells header) with
        | Some i -> i
        | None -> Alcotest.fail "no hqs_checks column"
      in
      let audits = int_of_string (cells row).(column) in
      check "the workers audited" true (audits > 0)
  | _ -> Alcotest.failf "no CSV row in %S" csv

let test_malformed_settings () =
  let file = Filename.quote (Lazy.force xor) in
  let socket = Filename.quote (Filename.concat (Filename.get_temp_dir_name ()) "cli_never.sock") in
  List.iter
    (fun (sub, args) ->
      List.iter
        (fun setting ->
          let code, _, _ = run (Printf.sprintf "%s %s %s --%s bogus" cli sub args setting) in
          check_int (Printf.sprintf "%s --%s bogus" sub setting) 2 code)
        [ "check"; "inproc"; "dep-scheme" ])
    [ ("", file); ("sweep", file); ("analyze", file); ("serve", "--socket " ^ socket) ]

(* solve arms injection when points come without a seed, as sweep and
   serve do *)
let test_chaos_points_without_seed () =
  let code, _, err =
    run
      (Printf.sprintf "%s %s --chaos-points maxsat.minset --stats" cli
         (Filename.quote (Lazy.force adder)))
  in
  check_int "SAT" 10 code;
  check "greedy fallback injected" true (contains err "degraded=maxsat.minset->greedy[injected]")

let () =
  Alcotest.run "cli"
    [
      ( "config",
        [
          Alcotest.test_case "environment does not configure a solve" `Quick
            test_environment_ignored;
          Alcotest.test_case "sweep --check full audits" `Quick test_sweep_check;
          Alcotest.test_case "malformed settings exit 2" `Quick test_malformed_settings;
          Alcotest.test_case "chaos points without a seed" `Quick test_chaos_points_without_seed;
        ] );
    ]
