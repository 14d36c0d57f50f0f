(* Benchmark harness: regenerates the paper's evaluation artifacts.

   - Table I: per-family solved/unsolved breakdown, HQS vs iDQ
   - Fig. 4: per-instance runtime scatter (data + ASCII log-log plot)
   - Headline claims of Section IV
   - Ablations of the design choices called out in DESIGN.md
   - Bechamel micro-benchmarks of the core operations

   Environment knobs:
     BENCH_TIMEOUT  per-instance wall-clock seconds   (default 5)
     BENCH_NODES    AIG node budget = memout emulation (default 400000)
     BENCH_QUICK=1  small suite for smoke runs
     BENCH_MICRO=0  skip the Bechamel section
     BENCH_JOBS     supervised sweep workers           (default 1)
     BENCH_JOURNAL  append completed tasks to this crash-safe JSONL file
     BENCH_RESUME   skip tasks already journaled in this file

   Layer-by-layer timing of the current build, with verdict and
   certificate checks, is perfbench's job (perfbench/README.md). *)

module Fam = Circuit.Families
module R = Harness.Runner

let env_float name default =
  match Sys.getenv_opt name with Some s -> float_of_string s | None -> default

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let env_bool name default =
  match Sys.getenv_opt name with Some ("0" | "false") -> false | Some _ -> true | None -> default

let timeout = env_float "BENCH_TIMEOUT" 5.0
let node_limit = env_int "BENCH_NODES" 400_000
let quick = env_bool "BENCH_QUICK" false

(* ------------------------------------------------------------- the suite *)

(* scaled-down analogue of the paper's 1820 instances; the SAT/UNSAT mix
   is UNSAT-heavy, as in Table I *)
let suite () =
  let adder =
    List.concat_map
      (fun bits ->
        List.concat_map
          (fun boxes ->
            Fam.adder ~bits ~boxes ~fault:true
            :: (if boxes <= 2 then [ Fam.adder ~bits ~boxes ~fault:false ] else []))
          [ 1; 2; 3 ])
      [ 1; 2; 3; 4 ]
    @ [
        Fam.adder ~bits:5 ~boxes:1 ~fault:true;
        Fam.adder ~bits:5 ~boxes:2 ~fault:true;
        Fam.adder ~bits:5 ~boxes:1 ~fault:false;
        Fam.adder ~bits:5 ~boxes:2 ~fault:false;
      ]
  in
  let chain_family make sizes =
    List.concat_map
      (fun cells ->
        [
          make ~cells ~boxes:1 ~fault:true;
          make ~cells ~boxes:2 ~fault:true;
          make ~cells ~boxes:2 ~fault:false;
        ])
      sizes
    @ [ make ~cells:16 ~boxes:3 ~fault:true; make ~cells:16 ~boxes:3 ~fault:false ]
  in
  let bitcell = chain_family (fun ~cells ~boxes ~fault -> Fam.bitcell ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let lookahead = chain_family (fun ~cells ~boxes ~fault -> Fam.lookahead ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let pec_xor =
    List.concat_map
      (fun length ->
        [ Fam.pec_xor ~length ~boxes:1 ~fault:true; Fam.pec_xor ~length ~boxes:2 ~fault:true ])
      [ 3; 4; 5; 6; 8; 10; 12 ]
    @ List.map (fun length -> Fam.pec_xor ~length ~boxes:2 ~fault:false) [ 3; 4; 5; 6; 8; 10 ]
  in
  let z4 =
    List.concat_map
      (fun add_bits ->
        List.concat_map
          (fun boxes ->
            [ Fam.z4 ~add_bits ~boxes ~fault:true; Fam.z4 ~add_bits ~boxes ~fault:false ])
          [ 1; 2; 3 ])
      [ 1; 2 ]
    @ [
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:false;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:false;
      ]
  in
  let comp =
    List.concat_map
      (fun bits ->
        [ Fam.comp ~bits ~boxes:1 ~fault:true; Fam.comp ~bits ~boxes:2 ~fault:true ])
      [ 2; 4; 6; 8; 10; 12 ]
    @ List.map (fun bits -> Fam.comp ~bits ~boxes:2 ~fault:false) [ 2; 4; 6; 8; 10 ]
    @ [
        Fam.comp ~bits:12 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:false;
      ]
  in
  let c432 =
    List.concat_map
      (fun lines ->
        List.concat_map
          (fun boxes ->
            [
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:true;
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:false;
            ])
          [ 1; 2 ])
      [ 2; 3; 5; 7 ]
    @ [
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:true;
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:false;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:true;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:false;
      ]
  in
  let all = adder @ bitcell @ lookahead @ pec_xor @ z4 @ comp @ c432 in
  if quick then
    List.filteri (fun i _ -> i mod 4 = 0) all
  else all

(* ------------------------------------------------------------ experiment *)

let short = function
  | R.Solved (true, t) -> Printf.sprintf "SAT %.2fs" t
  | R.Solved (false, t) -> Printf.sprintf "UNSAT %.2fs" t
  | R.Timeout _ -> "TO"
  | R.Memout _ -> "MO"
  | R.Crash _ -> "CRASH"

(* every (instance, solver) task in its own forked worker under the
   supervisor, so one wedged or crashing solve cannot take the whole
   benchmark down; the kernel wall limit is a backstop over the
   in-process timeout *)
let run_suite instances =
  let jobs = env_int "BENCH_JOBS" 1 in
  let journal = Sys.getenv_opt "BENCH_JOURNAL" in
  let resume = Sys.getenv_opt "BENCH_RESUME" in
  let config =
    {
      (Harness.Sweep.default_config ~timeout ~node_limit) with
      Harness.Sweep.exec =
        {
          Exec.Supervisor.default_config with
          Exec.Supervisor.jobs;
          limits = { Exec.Limits.none with Exec.Limits.wall_s = Some ((2.0 *. timeout) +. 10.0) };
        };
    }
  in
  let n = 2 * List.length instances in
  let count = ref 0 in
  let on_progress (p : Harness.Sweep.progress) =
    incr count;
    Printf.eprintf "[%3d/%d] %-32s %-12s%s\n%!" !count n p.Harness.Sweep.task
      (short p.Harness.Sweep.outcome)
      (if p.Harness.Sweep.from_journal then " (journal)"
       else if p.Harness.Sweep.attempts > 1 then Printf.sprintf " (%d attempts)" p.Harness.Sweep.attempts
       else "")
  in
  let rep = Harness.Sweep.run_instances ~config ?journal ?resume ~on_progress instances in
  Printf.eprintf "sweep: %d tasks executed, %d from journal%s\n%!" rep.Harness.Sweep.executed
    rep.Harness.Sweep.journaled
    (if rep.Harness.Sweep.journal_dropped > 0 then
       Printf.sprintf ", %d torn journal lines dropped" rep.Harness.Sweep.journal_dropped
     else "");
  rep.Harness.Sweep.results

(* ------------------------------------------------------------- ablations *)

let ablations () =
  let cases =
    [
      Fam.adder ~bits:3 ~boxes:2 ~fault:true;
      Fam.adder ~bits:3 ~boxes:2 ~fault:false;
      Fam.bitcell ~cells:8 ~boxes:2 ~fault:true;
      Fam.bitcell ~cells:8 ~boxes:2 ~fault:false;
      Fam.lookahead ~cells:8 ~boxes:2 ~fault:false;
      Fam.pec_xor ~length:8 ~boxes:2 ~fault:true;
      Fam.comp ~bits:8 ~boxes:2 ~fault:true;
      Fam.c432 ~groups:3 ~lines:3 ~boxes:2 ~fault:true;
    ]
  in
  let configs =
    [
      ("default", Hqs.default_config);
      ("greedy-set", { Hqs.default_config with use_maxsat = false });
      ("no-unitpure", { Hqs.default_config with use_unitpure = false });
      ( "no-gates",
        {
          Hqs.default_config with
          preprocess = { Dqbf.Preprocess.default_config with gate_detection = false };
        } );
      ("no-fraig", { Hqs.default_config with use_fraig = false });
      ("expand-all", { Hqs.default_config with mode = Hqs.Expand_all });
      ("qdpll-qbf", { Hqs.default_config with qbf_backend = Hqs.Search_backend });
      ( "bce",
        {
          Hqs.default_config with
          preprocess = { Dqbf.Preprocess.default_config with blocked_clauses = true };
        } );
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%-24s" "instance");
  List.iter (fun (name, _) -> Buffer.add_string buf (Printf.sprintf " %12s" name)) configs;
  Buffer.add_string buf "\n";
  List.iter
    (fun inst ->
      Buffer.add_string buf (Printf.sprintf "%-24s" inst.Fam.id);
      List.iter
        (fun (_, config) ->
          let cell =
            match fst (R.run_hqs ~config ~timeout ~node_limit inst.Fam.pcnf) with
            | R.Solved (_, t) -> Printf.sprintf "%.3fs" t
            | R.Timeout _ -> "TO"
            | R.Memout _ -> "MO"
            | R.Crash _ -> "CRASH"
          in
          Buffer.add_string buf (Printf.sprintf " %12s" cell))
        configs;
      Buffer.add_string buf "\n")
    cases;
  Buffer.contents buf

(* ---------------------------------------------------- Bechamel micro part *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* one Test.make per reproduced artifact, plus core-operation benches *)
  let t_table1 =
    Test.make ~name:"table1:hqs-adder-pec"
      (Staged.stage (fun () ->
           let inst = Fam.adder ~bits:2 ~boxes:2 ~fault:true in
           ignore (Hqs.solve_pcnf inst.Fam.pcnf)))
  in
  let t_fig4 =
    Test.make ~name:"fig4:idq-pec_xor"
      (Staged.stage (fun () ->
           let inst = Fam.pec_xor ~length:4 ~boxes:1 ~fault:true in
           ignore (Idq.solve_pcnf inst.Fam.pcnf)))
  in
  let t_aig =
    Test.make ~name:"aig:build-and-cofactor"
      (Staged.stage (fun () ->
           let man = Aig.Man.create () in
           let inputs = List.init 24 (Aig.Man.input man) in
           let root = Aig.Man.mk_and_list man inputs in
           let root = Aig.Man.mk_xor man root (List.hd inputs) in
           ignore (Aig.Man.cofactor man root ~var:3 ~value:true)))
  in
  let t_unitpure =
    let inst = Fam.comp ~bits:10 ~boxes:2 ~fault:true in
    let f =
      match Dqbf.Preprocess.run inst.Fam.pcnf with
      | Dqbf.Preprocess.Formula (f, _) -> f
      | Dqbf.Preprocess.Unsat -> assert false
    in
    Test.make ~name:"aig:unitpure-scan"
      (Staged.stage (fun () ->
           ignore (Aig.Unitpure.scan (Dqbf.Formula.man f) (Dqbf.Formula.matrix f))))
  in
  let t_maxsat =
    let inst = Fam.c432 ~groups:3 ~lines:5 ~boxes:2 ~fault:true in
    let f =
      match Dqbf.Preprocess.run inst.Fam.pcnf with
      | Dqbf.Preprocess.Formula (f, _) -> f
      | Dqbf.Preprocess.Unsat -> assert false
    in
    Test.make ~name:"maxsat:elimination-set"
      (Staged.stage (fun () -> ignore (Dqbf.Elimset.minimum_set f)))
  in
  let t_sat =
    Test.make ~name:"sat:random-3cnf"
      (Staged.stage (fun () ->
           let rng = Hqs_util.Rng.create 7 in
           let s = Sat.Solver.create () in
           Sat.Solver.ensure_var s 59;
           for _ = 1 to 250 do
             let lit () = Sat.Lit.mk (Hqs_util.Rng.int rng 60) ~neg:(Hqs_util.Rng.bool rng) in
             Sat.Solver.add_clause s [ lit (); lit (); lit () ]
           done;
           ignore (Sat.Solver.solve s)))
  in
  (* a Span.with_ call while tracing is off, next to the bare thunk it
     wraps: the gap is the cost behind "disabled tracing is one branch" *)
  let sink = ref 0 in
  let bare () = incr sink in
  let t_span_bare = Test.make ~name:"obs:bare-thunk" (Staged.stage bare) in
  let t_span_off =
    Test.make ~name:"obs:disabled-span"
      (Staged.stage (fun () -> Obs.Span.with_ "bench.overhead" bare))
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [ t_table1; t_fig4; t_aig; t_unitpure; t_maxsat; t_sat; t_span_bare; t_span_off ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  Hashtbl.iter
    (fun name res ->
      match Bechamel.Analyze.OLS.estimates res with
      | Some [ est ] -> Printf.printf "%-28s %16.0f\n" name est
      | _ -> Printf.printf "%-28s %16s\n" name "n/a")
    results

(* ------------------------------------------------------------------ main *)

let () =
  Printf.printf "HQS reproduction benchmark (timeout %.1fs, node limit %d%s)\n\n" timeout
    node_limit
    (if quick then ", QUICK suite" else "");
  let instances = suite () in
  Printf.printf "suite: %d PEC instances across %d families\n\n" (List.length instances)
    (List.length Fam.all_families);
  let results = run_suite instances in
  print_endline "================ Table I (cf. paper Table I) ================";
  print_string (Harness.Report.table1 results);
  print_endline "";
  print_endline "================ Fig. 4 (runtime scatter) ====================";
  print_string (Harness.Report.fig4 ~timeout results);
  print_endline "";
  print_endline "================ Headline claims (Section IV) ================";
  print_string (Harness.Report.headline results);
  print_endline "";
  print_endline "================ Ablations (DESIGN.md A1) ====================";
  print_string (ablations ());
  print_endline "";
  if env_bool "BENCH_MICRO" true then begin
    print_endline "================ Bechamel micro-benchmarks ===================";
    micro ()
  end;
  print_endline "";
  print_endline "raw per-instance results (CSV):";
  print_string (Harness.Report.csv ~config:Hqs.default_config results)
