(* perfbench: the repository's benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
              [--certcheck PATH]
     perfbench.exe --self-test BENCHMARK.json [--certcheck PATH]
     perfbench.exe --solve MODE FILE        (one solve; used by the benchmark)

   Prints progress and a human-readable table on stderr. On stdout it
   prints the resolved solver configuration and, as the last line, one
   JSON object
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). Exits 1 when any verdict or certificate is wrong, 2 on a
   usage error. perfbench/run.sh builds the program and calls this. *)

(* Hqs.default_config reads these; a stray value would silently measure
   another configuration *)
let pinned_env = [ "HQS_CHECK"; "HQS_INPROC"; "HQS_DEP_SCHEME"; "HQS_TRACE" ]

let usage_error msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let describe_config (c : Hqs.config) =
  Printf.sprintf "check=%s inproc=%s dep_scheme=%s fraig_threshold=%d unitpure=%b thm2=%b maxsat=%b"
    (Check.level_name c.Hqs.check_level)
    (Inproc.mode_name c.Hqs.preprocess.Dqbf.Preprocess.inproc)
    (Analysis.Scheme.name c.Hqs.dep_scheme)
    c.Hqs.fraig_threshold c.Hqs.use_unitpure c.Hqs.use_thm2 c.Hqs.use_maxsat

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref (-1) in
  let certcheck = ref "_build/default/bin/certcheck.exe" in
  let self_test = ref "" and solve = ref "" and file = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the instance texts");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--certcheck", Arg.Set_string certcheck, "PATH the certcheck binary");
      ("--self-test", Arg.Set_string self_test, "BENCHMARK.json run the benchmark's self-tests");
      ("--solve", Arg.Set_string solve, "MODE solve FILE once (the per-solve child process)");
    ]
  in
  Arg.parse spec (fun a -> file := a) "perfbench.exe --workload NAME ...";
  if !self_test <> "" then exit (Selftest.run ~benchmark_json:!self_test ~certcheck:!certcheck);
  if !solve <> "" then begin
    Pipeline.serve ~config:Hqs.default_config ~mode:!solve !file;
    exit 0
  end;
  if !file <> "" then usage_error ("unexpected argument " ^ !file);
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some _ -> usage_error (v ^ " is set; unset it to measure the default configuration")
      | None -> ())
    pinned_env;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> usage_error ("unknown workload " ^ !workload)
  in
  let config = Hqs.default_config in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d limit=%gs config: %s\n%!"
    w.Workload.name !seed !seconds !trace Workload.limit_s (describe_config config);
  let certcheck =
    if not w.Workload.certify then None
    else begin
      if not (Sys.file_exists !certcheck) then usage_error ("no certcheck binary at " ^ !certcheck);
      Some !certcheck
    end
  in
  let r = Bench.run ~trace:(!trace = 1) ~seconds:!seconds ~seed:!seed ?certcheck w in
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.6g %s\n" name v unit)
    r.Bench.metrics;
  print_endline (Bench.to_json r);
  exit (if r.Bench.correct then 0 else 1)
