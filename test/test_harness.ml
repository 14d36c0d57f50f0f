module R = Harness.Runner
module Fam = Circuit.Families

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_sat = Fam.pec_xor ~length:3 ~boxes:1 ~fault:false
let small_unsat = Fam.pec_xor ~length:3 ~boxes:1 ~fault:true

(* ---------------------------------------------------------------- runner *)

let test_run_hqs_solves () =
  (match fst (R.run_hqs ~timeout:30.0 ~node_limit:400_000 small_sat.Fam.pcnf) with
  | R.Solved (true, t) -> check "positive time" true (t >= 0.0)
  | _ -> Alcotest.fail "expected SAT");
  match fst (R.run_hqs ~timeout:30.0 ~node_limit:400_000 small_unsat.Fam.pcnf) with
  | R.Solved (false, _) -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_run_hqs_timeout () =
  let hard = Fam.adder ~bits:6 ~boxes:3 ~fault:false in
  match fst (R.run_hqs ~timeout:0.02 ~node_limit:50_000_000 hard.Fam.pcnf) with
  | R.Timeout _ -> ()
  | R.Memout _ -> () (* also acceptable on a tiny machine *)
  | R.Solved _ -> Alcotest.fail "expected an abort"
  | R.Crash _ -> Alcotest.fail "expected an abort, got a crash"

let test_run_hqs_memout () =
  let inst = Fam.adder ~bits:4 ~boxes:2 ~fault:false in
  match fst (R.run_hqs ~timeout:60.0 ~node_limit:64 inst.Fam.pcnf) with
  | R.Memout _ -> ()
  | R.Timeout _ -> Alcotest.fail "expected memout, got timeout"
  | R.Solved _ -> Alcotest.fail "expected memout, got solved"
  | R.Crash _ -> Alcotest.fail "expected memout, got crash"

let test_run_instance_agreement () =
  let r = R.run_instance ~timeout:20.0 ~node_limit:400_000 small_unsat in
  check "both solved" true (R.is_solved r.R.hqs && R.is_solved r.R.idq);
  check "family" true (r.R.family = "pec_xor");
  check "consistent" true (r.R.soundness = R.Consistent);
  check "times readable" true (R.time_of r.R.hqs >= 0.0 && R.time_of r.R.idq >= 0.0)

(* ---------------------------------------------------------------- report *)

let fake_results =
  [
    {
      R.id = "a1";
      family = "adder";
      sat_expected = None;
      hqs = R.Solved (true, 0.1);
      idq = R.Solved (true, 2.0);
      hqs_degraded = [];
      hqs_stats = None;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
    {
      R.id = "a2";
      family = "adder";
      sat_expected = None;
      hqs = R.Solved (false, 0.2);
      idq = R.Timeout 5.0;
      hqs_degraded = [ "maxsat.minset->greedy[timeout]" ];
      hqs_stats = None;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
    {
      R.id = "b1";
      family = "bitcell";
      sat_expected = None;
      hqs = R.Memout 3.0;
      idq = R.Solved (false, 0.5);
      hqs_degraded = [];
      hqs_stats = None;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
  ]

let test_table1_shape () =
  let t = Harness.Report.table1 fake_results in
  let lines = String.split_on_char '\n' t in
  (* header + separator + 2 family rows + separator + total row + trailing *)
  check "adder row" true (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "adder") lines);
  check "bitcell row" true
    (List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "bitcell") lines);
  check "total row" true (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "total") lines);
  (* common time: only a1 is solved by both -> hqs 0.1, idq 2.0 *)
  check "hqs common time" true
    (let re = Str.regexp_string "0.10" in
     try
       ignore (Str.search_forward re t 0);
       true
     with Not_found -> false)

let test_fig4_contains_points () =
  let s = Harness.Report.fig4 ~timeout:5.0 fake_results in
  check "series row" true
    (let re = Str.regexp_string "a1" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "TO marker" true
    (let re = Str.regexp_string "TO" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "plot axis" true
    (let re = Str.regexp_string "iDQ time" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let test_headline_counts () =
  let s = Harness.Report.headline fake_results in
  check "solved counts" true
    (let re = Str.regexp_string "solved by HQS: 2, by iDQ: 2" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "idq-not-hqs" true
    (let re = Str.regexp_string "solved by iDQ but not HQS: 1" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let test_csv_lines () =
  let s = Harness.Report.csv ~config:Hqs.default_config fake_results in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  check_int "header + one line per result" 4 (List.length lines);
  check "memout cell" true
    (let re = Str.regexp_string "MO" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let contains s needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re s 0);
    true
  with Not_found -> false

let test_degradation_column () =
  let t = Harness.Report.table1 fake_results in
  check "degr header" true (contains t "degr");
  let s = Harness.Report.csv ~config:Hqs.default_config fake_results in
  check "csv degradation label" true (contains s "maxsat.minset->greedy[timeout]")

let disagreeing_results =
  fake_results
  @ [
      {
        R.id = "x1";
        family = "adder";
        sat_expected = None;
        hqs = R.Solved (true, 0.1);
        idq = R.Solved (false, 0.1);
        hqs_degraded = [];
        hqs_stats = None;
        soundness = R.Disagreement { hqs_sat = true; idq_sat = false };
        attempts = 1;
        worker_pid = None;
        cert_path = None;
      };
    ]

let test_disagreement_reported () =
  check "table flags alarm" true
    (contains (Harness.Report.table1 disagreeing_results) "SOUNDNESS ALARM");
  check "table names instance" true (contains (Harness.Report.table1 disagreeing_results) "x1");
  check "csv flags disagree" true (contains (Harness.Report.csv ~config:Hqs.default_config disagreeing_results) "DISAGREE");
  check "headline flags alarm" true
    (contains (Harness.Report.headline disagreeing_results) "disagreements: 1");
  (* clean results stay quiet *)
  check "no alarm when consistent" false
    (contains (Harness.Report.table1 fake_results) "SOUNDNESS ALARM")

let crashy_results =
  fake_results
  @ [
      {
        R.id = "c1";
        family = "bitcell";
        sat_expected = None;
        hqs = R.Crash 0.4;
        idq = R.Solved (false, 0.5);
        hqs_degraded = [];
        hqs_stats = None;
        soundness = R.Consistent;
        attempts = 3;
        worker_pid = Some 1234;
        cert_path = None;
      };
    ]

let test_crash_reported () =
  let t = Harness.Report.table1 crashy_results in
  check "table names quarantined instance" true (contains t "CRASH: 1 instance(s)");
  check "table names id" true (contains t "c1");
  let s = Harness.Report.csv ~config:Hqs.default_config crashy_results in
  check "csv crash outcome cell" true (contains s "CRASH,0.400");
  check "csv executor cells" true (contains s ",crash,3,1234");
  check "fig4 crash rail" true (contains (Harness.Report.fig4 crashy_results) "CR");
  (* a crash counts as unsolved in the headline *)
  check "headline unchanged solved count" true
    (contains (Harness.Report.headline crashy_results) "solved by HQS: 2")

let test_csv_executor_columns () =
  let s = Harness.Report.csv ~config:Hqs.default_config fake_results in
  let header = List.hd (String.split_on_char '\n' s) in
  (* pre-existing prefix is byte-stable; the executor block is appended *)
  check "stable prefix" true
    (let prefix = "id,family,hqs_outcome,hqs_time,idq_outcome,idq_time,hqs_degraded" in
     let n = String.length prefix in
     String.length header > n && String.sub header 0 n = prefix);
  check "executor, analysis, inproc then cert columns last" true
    (let suffix =
       ",outcome,attempts,worker_pid,hqs_dep_scheme,hqs_analysis_edges_pruned,hqs_analysis_linearized,hqs_inproc_mode,hqs_inproc_rounds,hqs_inproc_units,hqs_inproc_scc_merges,hqs_inproc_subsumed,hqs_inproc_strengthened,hqs_inproc_failed_lits,hqs_inproc_bve,hqs_inproc_clauses_removed,hqs_inproc_lits_removed,hqs_cert_status,cert"
     in
     let n = String.length header and m = String.length suffix in
     n > m && String.sub header (n - m) m = suffix);
  check "in-process rows: solved, 1 attempt, empty pid, blank analysis/inproc/cert cells"
    true
    (contains s ",solved,1,,,,,,,,,,,,,,,,\n")

(* a timed-out worker's row is rebuilt from its salvaged samples: the
   config echoes come from the sweep's config (not hard-coded defaults)
   and inproc rounds are fixpoint rounds (not engine calls), exactly as
   on a clean row *)
let test_salvaged_row () =
  let sample name kind v = { Obs.Metrics.name; kind; v } in
  let salvaged =
    [
      sample "elim.universal" Obs.Metrics.Counter 3.0;
      sample "hqs.maxsat_set" Obs.Metrics.Gauge 4.0;
      sample "hqs.maxsat_time_s.count" Obs.Metrics.Histogram 1.0;
      sample "hqs.peak_nodes" Obs.Metrics.Gauge 4167.0;
      sample "inproc.rounds" Obs.Metrics.Counter 2.0;
      sample "inproc.runs" Obs.Metrics.Counter 1.0;
    ]
  in
  let completion =
    {
      Exec.Supervisor.task_id = "c432_g3l6_k2_ok/hqs";
      status = Exec.Supervisor.Timeout 30.0;
      attempts = 1;
      worker_pid = 4242;
      elapsed_s = 30.0;
      crash_log = [];
      from_journal = false;
      salvaged_metrics = salvaged;
    }
  in
  let stats = Harness.Sweep.stats_of_completion completion in
  check "salvaged stats rebuilt" true (stats <> None);
  let config =
    {
      Hqs.default_config with
      Hqs.dep_scheme = Analysis.Scheme.Rp;
      check_level = Check.Full;
      preprocess = { Hqs.default_config.Hqs.preprocess with Dqbf.Preprocess.inproc = Inproc.Full };
    }
  in
  let row =
    {
      R.id = "c432_g3l6_k2_ok";
      family = "c432";
      sat_expected = None;
      hqs = R.Timeout 30.0;
      idq = R.Timeout 30.0;
      hqs_degraded = [];
      hqs_stats = stats;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = Some 4242;
      cert_path = None;
    }
  in
  let lines = String.split_on_char '\n' (Harness.Report.csv ~config [ row ]) in
  let cell name =
    match lines with
    | header :: line :: _ ->
        let columns = String.split_on_char ',' header and cells = String.split_on_char ',' line in
        List.assoc name (List.combine columns cells)
    | _ -> Alcotest.fail "csv has no data row"
  in
  let check_cell name want = Alcotest.(check string) name want (cell name) in
  check_cell "hqs_outcome" "TO";
  check_cell "hqs_dep_scheme" "rp";
  check_cell "hqs_inproc_mode" "full";
  check_cell "hqs_inproc_rounds" "2";
  check_cell "hqs_peak_nodes" "4167";
  check_cell "hqs_univ_elims" "3";
  check_cell "hqs_maxsat_set" "4";
  check_cell "hqs_cert_status" "-";
  match stats with
  | None -> ()
  | Some s ->
      (* the --stats rendering of the same stats reads the same table *)
      let line = Format.asprintf "%a" (Hqs.pp_stats config) s in
      List.iter
        (fun kv -> check ("stats line has " ^ kv) true (contains line kv))
        [ "maxsat-runs=1 "; "check-level=full "; "dep-scheme=rp "; "inproc=full "; "inproc-rounds=2 " ];
      (* and the clean-frame codec carries samples and labels unchanged *)
      let labelled = { s with Hqs.degraded = [ "fraig.sweep->compact[timeout]" ]; cert_status = "SAT" } in
      check "stats frame round-trips" true
        (Harness.Sweep.stats_of_json (Harness.Sweep.stats_to_json labelled) = Some labelled)

(* regression for the BENCH_analysis.json sentinel leak: a run without
   stats must render as JSON [null], never as [-1] (which downstream
   sums and CSV imports would treat as real data) *)
let test_json_null_cells () =
  Alcotest.(check string) "present int" "7" (Harness.Report.json_int_cell (Some 7));
  Alcotest.(check string) "absent int is null" "null" (Harness.Report.json_int_cell None);
  Alcotest.(check string) "present bool" "true" (Harness.Report.json_bool_cell (Some true));
  Alcotest.(check string) "absent bool is null" "null" (Harness.Report.json_bool_cell None);
  (* the cell must parse as JSON null, not as a number *)
  (match Obs.Json.parse (Harness.Report.json_int_cell None) with
  | Ok Obs.Json.Null -> ()
  | Ok _ -> Alcotest.fail "null cell parsed as a value"
  | Error e -> Alcotest.failf "null cell unparsable: %s" e);
  (* and a baseline row built from it must never contain a -1 sentinel *)
  let row =
    Printf.sprintf "{ \"maxsat_set_rp\": %s, \"edges_pruned\": %s }"
      (Harness.Report.json_int_cell None)
      (Harness.Report.json_int_cell None)
  in
  check "no sentinel in rendered row" false (contains row "-1")

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "solves" `Slow test_run_hqs_solves;
          Alcotest.test_case "timeout" `Quick test_run_hqs_timeout;
          Alcotest.test_case "memout" `Quick test_run_hqs_memout;
          Alcotest.test_case "instance agreement" `Slow test_run_instance_agreement;
        ] );
      ( "report",
        [
          Alcotest.test_case "table1 shape" `Quick test_table1_shape;
          Alcotest.test_case "fig4 content" `Quick test_fig4_contains_points;
          Alcotest.test_case "headline counts" `Quick test_headline_counts;
          Alcotest.test_case "csv lines" `Quick test_csv_lines;
          Alcotest.test_case "degradation column" `Quick test_degradation_column;
          Alcotest.test_case "disagreement reported" `Quick test_disagreement_reported;
          Alcotest.test_case "crash reported" `Quick test_crash_reported;
          Alcotest.test_case "csv executor columns" `Quick test_csv_executor_columns;
          Alcotest.test_case "json null cells" `Quick test_json_null_cells;
          Alcotest.test_case "salvaged row" `Quick test_salvaged_row;
        ] );
    ]
